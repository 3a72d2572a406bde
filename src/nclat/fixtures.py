"""Built-in example configurations, held as module constants.

Three six-point configurations around one triangle, chosen so that their
lattices show the three qualitative behaviours; criterion 5 of verify-paper
checks all three.  Each name maps to its labels and to its points, given as
exact rational strings, which make_configuration reads exactly as
config_from_json reads the strings of an --input file.
"""

from .errors import InvalidInput
from .geometry import Configuration, make_configuration

_FIXTURES = {
    # convex position: graded and rank-symmetric
    "hexagon6": (
        ("h1", "h2", "h3", "h4", "h5", "h6"),
        (("0", "7/5"), ("-121/100", "7/10"), ("-121/100", "-7/10"),
         ("0", "-7/5"), ("121/100", "-7/10"), ("121/100", "7/10")),
    ),
    # the triangle plus its edge midpoints, still on the convex boundary:
    # graded but not rank-symmetric
    "triangle-midpoints": (
        ("o1", "o2", "o3", "i1", "i2", "i3"),
        (("0", "7/5"), ("-121/100", "-7/10"), ("121/100", "-7/10"),
         ("-121/200", "7/20"), ("0", "-7/10"), ("121/200", "7/20")),
    ),
    # the triangle plus a small twisted inner triangle of interior points:
    # not graded.  The three outer-inner "pinwheel" blocks merge into the
    # full block in a single cover that jumps two ranks, since every
    # pairwise merge crosses the remaining block
    "triangle-pinwheel": (
        ("o1", "o2", "o3", "i1", "i2", "i3"),
        (("0", "7/5"), ("-121/100", "-7/10"), ("121/100", "-7/10"),
         ("-513/5000", "2819/10000"), ("-241/1250", "-1149/5000"),
         ("1477/5000", "-521/10000")),
    ),
}

BUILTIN = tuple(_FIXTURES)


def load_builtin(name: str) -> Configuration:
    if name not in BUILTIN:
        raise InvalidInput(f"unknown builtin configuration {name!r}; have {', '.join(BUILTIN)}")
    labels, points = _FIXTURES[name]
    return make_configuration(points, labels)
