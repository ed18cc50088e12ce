import numpy as np
import pytest

from fracspec.errors import DomainError
from fracspec.svg import svg_line_chart


def _chart():
    x = np.linspace(0, 1, 20)
    return svg_line_chart(
        [("one", x, np.sin(x), "#d62728"), ("two", x, np.cos(x), "#1f77b4")],
        title="demo",
        xlabel="x",
        ylabel="y",
    )


def test_structure():
    svg = _chart()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "demo" in svg and "one" in svg and "two" in svg
    assert ">x</text>" in svg and ">y</text>" in svg
    assert 'width="720"' in svg and 'height="480"' in svg


def test_deterministic():
    assert _chart() == _chart()
    assert "\r" not in _chart()


def test_empty_series_rejected():
    with pytest.raises(DomainError):
        svg_line_chart([], title="t", xlabel="x", ylabel="y")


def test_flat_series_has_ticks():
    x = np.array([0.0, 1.0])
    svg = svg_line_chart([("flat", x, np.zeros(2), "#000000")],
                         title="t", xlabel="x", ylabel="y")
    assert "<polyline" in svg
