"""Declarative fixture syntax for WZ pairs.

The file format is line-oriented:

    pair <name>
    term F
    gamma <c0> <cn> <ck> <exponent>     # Gamma(c0 + cn*n + ck*k)**exponent
    geom <base> <cn> <ck>               # base**(cn*n + ck*k)
    pre <rational expression in n, k>
    term G
    ...
    end

Rationals are written as p/q.  ``parse_fixture(serialize_fixture(pairs))``
returns an equal mapping; the shipped file ``fixtures/wz_pairs.txt`` defines
the three built-in pairs.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources

from .hyperterm import HyperTerm, LinForm
from .multipoly import parse_ratfunc
from .wz import WZPair


def parse_fixture(text: str) -> dict[str, WZPair]:
    """Parse fixture text into pairs by name.

    A ``pre`` line is kept as written, so write it in lowest terms: a common
    factor of its numerator and denominator is not cancelled, and at a point
    where that factor vanishes the prefactor raises instead of evaluating.
    """
    pairs: dict[str, WZPair] = {}
    name = None
    terms: dict[str, HyperTerm] = {}
    current = None
    gammas: list[tuple[LinForm, int]] = []
    geom = (Fraction(1), 0, 0)
    pre = None

    def close_term():
        nonlocal current, gammas, geom, pre
        if current is None:
            return
        if pre is None:
            raise ValueError(f"term {current!r} of pair {name!r} has no pre line")
        terms[current] = HyperTerm.build(gammas, geom[0], geom[1], geom[2], pre)
        current, gammas, geom, pre = None, [], (Fraction(1), 0, 0), None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "pair":
            if name is not None:
                raise ValueError(f"line {lineno}: previous pair {name!r} not closed")
            name = rest
            terms = {}
        elif head == "term":
            close_term()
            if rest not in ("F", "G"):
                raise ValueError(f"line {lineno}: term must be F or G")
            current = rest
        elif head == "gamma":
            c0, cn, ck, e = rest.split()
            gammas.append((LinForm(Fraction(c0), Fraction(cn), Fraction(ck)), int(e)))
        elif head == "geom":
            base, cn, ck = rest.split()
            geom = (Fraction(base), int(cn), int(ck))
        elif head == "pre":
            pre = parse_ratfunc(rest)
        elif head == "end":
            close_term()
            if name is None or set(terms) != {"F", "G"}:
                raise ValueError(f"line {lineno}: pair needs both F and G terms")
            pairs[name] = WZPair(terms["F"], terms["G"], name)
            name = None
        else:
            raise ValueError(f"line {lineno}: unknown directive {head!r}")
    if name is not None:
        raise ValueError(f"pair {name!r} missing end line")
    return pairs


def serialize_fixture(pairs: dict[str, WZPair]) -> str:
    out = []
    for name, pair in pairs.items():
        out.append(f"pair {name}")
        for label, term in (("F", pair.F), ("G", pair.G)):
            out.append(f"term {label}")
            for lf, e in term.gammas:
                out.append(f"gamma {lf.c0} {lf.cn} {lf.ck} {e}")
            out.append(f"geom {term.base} {term.g_cn} {term.g_ck}")
            out.append(f"pre {term.pre}")
        out.append("end")
        out.append("")
    return "\n".join(out)


def builtin_pairs() -> dict[str, WZPair]:
    """The three pairs shipped with the package, parsed from the fixture file."""
    text = resources.files("wzmahler.symbolic").joinpath("fixtures/wz_pairs.txt").read_text()
    return parse_fixture(text)
