"""Line-oriented run configuration.

Grammar (one directive per line, `#` starts a comment):

    kind NAME                   model kind (dvr, antimatter, numerical-monoid,
                                d1, d2, zxq)
    generator N [N ...]         numerical-monoid generators
    bound NAME INT              window/search bound (positive integer)
    flag NAME true|false        boolean flag, e.g. include_fractional
    element C0 [C1 ...]         explicit window element by ascending
                                coefficients; exact rationals like 1/2 allowed
    atom C0 [C1 ...]            declared irreducible polynomial (zxq only)

`bound search_bound N` configures the certificate searches and the oracle
rather than the window itself; `--bound` on the command line overrides it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import ParseError
from .models import build_model
from .models.base import DivisibilityModel, WindowSpec

DEFAULT_SEARCH_BOUND = 8


@dataclass
class RunConfig:
    kind: str
    generators: tuple[int, ...] = ()
    bounds: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    elements: tuple[tuple[Fraction, ...], ...] = ()
    declared_atoms: tuple[tuple[Fraction, ...], ...] = ()

    @property
    def search_bound(self) -> int:
        return self.bounds.get("search_bound", DEFAULT_SEARCH_BOUND)

    def build(self) -> tuple[DivisibilityModel, WindowSpec]:
        options = {}
        if self.generators:
            options["generators"] = self.generators
        if self.declared_atoms:
            options["declared_atoms"] = self.declared_atoms
        if "degree_cap" in self.bounds:
            options["degree_cap"] = self.bounds["degree_cap"]
        model = build_model(self.kind, options)
        window_bounds = {
            k: v
            for k, v in self.bounds.items()
            if k not in ("search_bound", "degree_cap")
        }
        if self.elements:
            window_bounds["elements"] = self.elements
        spec = WindowSpec(
            model.id,
            window_bounds,
            include_fractional=bool(self.flags.get("include_fractional", False)),
        )
        return model, spec


def _fraction(tok: str, line_no: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not an exact rational: {tok!r}", line=line_no) from None


def _int(tok: str, line_no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"not an integer: {tok!r}", line=line_no) from None


def parse_config(text: str) -> RunConfig:
    kind = None
    generators: list[int] = []
    bounds: dict = {}
    flags: dict = {}
    elements: list[tuple[Fraction, ...]] = []
    declared: list[tuple[Fraction, ...]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        directive, args = toks[0], toks[1:]
        if directive == "kind":
            if len(args) != 1:
                raise ParseError("kind takes exactly one argument", line=line_no)
            if kind is not None:
                raise ParseError("duplicate kind directive", line=line_no)
            kind = args[0]
        elif directive == "generator":
            if not args:
                raise ParseError("generator needs at least one integer", line=line_no)
            generators.extend(_int(a, line_no) for a in args)
        elif directive == "bound":
            if len(args) != 2:
                raise ParseError("bound takes a name and an integer", line=line_no)
            bounds[args[0]] = _int(args[1], line_no)
        elif directive == "flag":
            if len(args) != 2 or args[1] not in ("true", "false"):
                raise ParseError("flag takes a name and true|false", line=line_no)
            flags[args[0]] = args[1] == "true"
        elif directive == "element":
            if not args:
                raise ParseError("element needs coefficients", line=line_no)
            elements.append(tuple(_fraction(a, line_no) for a in args))
        elif directive == "atom":
            if not args:
                raise ParseError("atom needs coefficients", line=line_no)
            declared.append(tuple(_fraction(a, line_no) for a in args))
        else:
            raise ParseError(f"unknown directive {directive!r}", line=line_no)
    if kind is None:
        raise ParseError("config is missing a kind directive")
    return RunConfig(
        kind=kind,
        generators=tuple(generators),
        bounds=bounds,
        flags=flags,
        elements=tuple(elements),
        declared_atoms=tuple(declared),
    )


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())
