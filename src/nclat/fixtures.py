"""Built-in example configurations shipped as package data.

Three six-point configurations around a triangle, chosen so their lattices
exhibit the three qualitative behaviors:

    hexagon6            convex position: graded and rank-symmetric
    triangle-midpoints  triangle plus edge midpoints (still on the convex
                        boundary): graded but not rank-symmetric
    triangle-pinwheel   triangle plus a small twisted inner triangle (interior
                        points): not graded; the three outer-inner "pinwheel"
                        blocks merge into the full block in a single cover that
                        jumps two ranks, since every pairwise merge crosses the
                        remaining block
"""

from .errors import InvalidInput
from .geometry import Configuration, config_from_json

BUILTIN = ("hexagon6", "triangle-midpoints", "triangle-pinwheel")


def load_builtin(name: str) -> Configuration:
    if name not in BUILTIN:
        raise InvalidInput(f"unknown builtin configuration {name!r}; have {', '.join(BUILTIN)}")
    # imported here, not with the package: importlib.resources and what it
    # loads would add about 25 ms to every command's start-up
    from importlib import resources

    text = resources.files("nclat").joinpath(f"data/{name}.json").read_text()
    return config_from_json(text)
