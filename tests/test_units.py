import pytest

from teleqos import units


def test_rates():
    assert units.RATE.parse("6 Mbps") == 750000.0
    assert units.RATE.parse("1.096 Mbps") == pytest.approx(137000.0)
    assert units.RATE.parse("400 kbps") == 50000.0
    assert units.RATE.parse("137000 Bps") == 137000.0
    assert units.RATE.parse("6Mbps") == 750000.0  # no space form


def test_times_sizes_freqs():
    assert units.TIME.parse("8 ms") == 0.008
    assert units.TIME.parse("500 s") == 500.0
    assert units.SIZE.parse("14 kB") == 14000.0
    assert units.SIZE.parse("578 B") == 578.0
    assert units.FREQ.parse("25 Hz") == 25.0
    assert units.FRACTION.parse("10 %") == pytest.approx(0.1)
    assert units.FRACTION.parse("0.1") == 0.1


def test_missing_unit_rejected():
    with pytest.raises(units.UnitError, match="missing a unit suffix"):
        units.RATE.parse("6")
    with pytest.raises(units.UnitError, match="unknown unit"):
        units.TIME.parse("8 lightyears")
    with pytest.raises(units.UnitError):
        units.SIZE.parse("fast B")


def test_format_parse_roundtrip_exact():
    for value in (750000.0, 137000.00000000001, 1/3, 2e-9, 123456.789):
        assert units.RATE.parse(units.RATE.format(value)) == value
        assert units.TIME.parse(units.TIME.format(value)) == value
        assert units.SIZE.parse(units.SIZE.format(value)) == value
        assert units.FREQ.parse(units.FREQ.format(value)) == value
