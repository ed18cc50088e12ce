from xml.dom import minidom

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


def test_labels_are_escaped_text():
    # a label holding XML's special characters once gave a document that
    # no XML parser accepts
    x = np.linspace(0, 1, 5)
    svg = svg_line_chart([("f < g & h", x, x, "#000000")],
                         title="a<b & c", xlabel="x > 0", ylabel="<y>")
    doc = minidom.parseString(svg)
    texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert {"a<b & c", "x > 0", "<y>", "f < g & h"} <= set(texts)
