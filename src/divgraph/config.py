"""Line-oriented run configuration.

Grammar (one directive per line, `#` starts a comment):

    kind NAME                   model kind (dvr, antimatter, numerical-monoid,
                                d1, d2, zxq)
    generator N [N ...]         numerical-monoid generators (positive integers)
    bound NAME INT              window bound (positive integer)
    flag NAME true|false        boolean flag, e.g. include_fractional
    element C0 [C1 ...]         explicit window element by ascending
                                coefficients; exact rationals like 1/2 allowed,
                                and a plain ASCII integer is read as an int
    atom C0 [C1 ...]            declared irreducible polynomial (zxq only;
                                constant term +-1, no rational root)

A directive the kind does not read is an error: every kind reads
`flag include_fractional` and the window bounds its model class names in
`window_bounds`, and `_KIND_DIRECTIVES` names the rest: `generator`, zxq's
`element`, `atom` and `bound degree_cap`, and the bounds of a rational grid.
Only `generator`, `element` and `atom` lines may repeat: they accumulate.

Each line goes straight to the argument it feeds, into one of the fields
of `RunConfig`: `kind`; `options`, the model's constructor arguments
(`generators`, `declared_atoms` and a bound of `_KIND_DIRECTIVES`); `window`,
the window bounds and zxq's `elements`; and `include_fractional`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, InvalidBounds, ParseError
from .models import KINDS, build_model
from .models.base import DivisibilityModel, WindowSpec

_REPEATABLE = ("generator", "element", "atom")  # any other directive appears once
# what only some kinds read, besides the window bounds of each
_KIND_DIRECTIVES = {
    "numerical-monoid": ("generator",),
    "zxq": ("element", "atom", "bound degree_cap"),
    "d1": ("bound den_max",),
    "antimatter": ("bound max_den",),
}
_OPTION_BOUNDS = ("degree_cap", "den_max", "max_den")  # the bounds that are constructor arguments


class RunConfig:
    def __init__(self, kind: str, options=None, window=None, include_fractional=False):
        self.kind = kind
        self.options: dict = {} if options is None else options  # the model's constructor arguments
        self.window: dict = {} if window is None else window  # the window bounds, and zxq's elements
        self.include_fractional: bool = include_fractional

    def build(self) -> tuple[DivisibilityModel, WindowSpec]:
        spec = WindowSpec(self.window, self.include_fractional)
        return build_model(self.kind, self.options), spec


_INT = re.compile(r"[+-]?[0-9]+")  # what int() and Fraction() read alike on every Python


def _fraction(tok: str, line_no: int) -> int | Fraction:
    if _INT.fullmatch(tok):
        return int(tok)
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not an exact rational: {tok!r}", line=line_no) from None


def _positive_int(tok: str, line_no: int, name: str) -> int:
    try:
        n = int(tok)
    except ValueError:
        raise ParseError(f"not an integer: {tok!r}", line=line_no) from None
    if n < 1:
        raise InvalidBounds(f"{name} must be a positive integer, got {n}", line=line_no)
    return n


def parse_config(text: str) -> RunConfig:
    kind = None
    options: dict = {}
    window: dict = {}
    include_fractional = False
    first_line: dict[str, int] = {}  # directive (with a bound or flag name) -> first line
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        directive, args = toks[0], toks[1:]
        key = " ".join(toks[:2]) if directive in ("bound", "flag") else directive
        if key in first_line and directive not in _REPEATABLE:
            raise ParseError(f"{key!r} is repeated from line {first_line[key]}", line=line_no)
        first_line.setdefault(key, line_no)
        if directive == "kind":
            if len(args) != 1:
                raise ParseError("kind takes exactly one argument", line=line_no)
            kind = args[0]
        elif directive == "generator":
            if not args:
                raise ParseError("generator needs at least one integer", line=line_no)
            gens = tuple(_positive_int(a, line_no, "a generator") for a in args)
            options["generators"] = options.get("generators", ()) + gens
        elif directive == "bound":
            if len(args) != 2:
                raise ParseError("bound takes a name and an integer", line=line_no)
            n = _positive_int(args[1], line_no, f"bound {args[0]!r}")
            (options if args[0] in _OPTION_BOUNDS else window)[args[0]] = n
        elif directive == "flag":
            if len(args) != 2 or args[1] not in ("true", "false"):
                raise ParseError("flag takes a name and true|false", line=line_no)
            if args[0] != "include_fractional":
                raise ConfigError(f"unknown flag {args[0]!r}", line=line_no)
            include_fractional = args[1] == "true"
        elif directive in ("element", "atom"):
            if not args:
                raise ParseError(f"{directive} needs coefficients", line=line_no)
            row = tuple(_fraction(a, line_no) for a in args)
            if directive == "element":
                window["elements"] = window.get("elements", ()) + (row,)
            else:
                options["declared_atoms"] = options.get("declared_atoms", ()) + (row,)
        else:
            raise ParseError(f"unknown directive {directive!r}", line=line_no)
    if kind is None:
        raise ParseError("config is missing a kind directive")
    if kind in KINDS:  # an unknown kind fails in build()
        reads = {"kind", "flag include_fractional"}
        reads.update(_KIND_DIRECTIVES.get(kind, ()))
        reads.update(f"bound {b}" for b in KINDS[kind].window_bounds)
        for directive, line_no in first_line.items():
            if directive not in reads:
                raise ConfigError(f"kind {kind} does not read {directive!r}", line=line_no)
    return RunConfig(kind, options, window, include_fractional)


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())
