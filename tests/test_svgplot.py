"""Log-log SVG rendering: axis ranges, element markup and refused input."""

from xml.etree import ElementTree

import pytest

from longtail.svgplot import MARGIN_LEFT, PLOT_W, Series, _decade_range, _element, loglog_svg


def test_single_decade_is_widened_by_one_each_side():
    assert _decade_range([0.1]) == (-2, 0)
    svg = loglog_svg([Series(label="s", x=[0.1, 0.1], y=[1.0, 5.0])], title="t", x_label="x", y_label="y")
    for label in ("1e-2", "1e-1", "1e0"):
        assert f">{label}</text>" in svg
    # 0.1 sits at exponent -1, the middle of the widened range [-2, 0]
    assert f'<circle cx="{MARGIN_LEFT + PLOT_W / 2:.2f}"' in svg


@pytest.mark.parametrize(
    "series",
    [
        [],
        [Series(label="empty", x=[], y=[])],
        [Series(label="zero x", x=[0.0, 1.0], y=[1.0, 2.0])],
        [Series(label="negative y", x=[1.0, 2.0], y=[1.0, -2.0])],
        [Series(label="ok", x=[1.0], y=[1.0]), Series(label="zero y", x=[3.0], y=[0.0])],
    ],
)
def test_loglog_svg_refuses_empty_or_non_positive_series(series):
    with pytest.raises(ValueError, match="at least one point and all positive coordinates"):
        loglog_svg(series, title="t", x_label="x", y_label="y")


def test_element_formats_floats_renames_and_escapes():
    assert _element("circle", cx=1.0, r=3, stroke_width="1.5") == '<circle cx="1.00" r="3" stroke-width="1.5"/>'
    assert _element("text", "a < b & c", x='say "hi"') == '<text x="say &quot;hi&quot;">a &lt; b &amp; c</text>'


def test_labels_with_markup_characters_give_well_formed_xml():
    # a label holding < or & made the plot malformed XML
    label = "N < 500 & mu > 0"
    svg = loglog_svg([Series(label, [1, 10], [1, 10])], title=label, x_label="x", y_label="y")
    texts = [e.text for e in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts.count(label) == 2
