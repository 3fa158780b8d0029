"""Test helpers: compare tropical curves up to subdivision of edges."""

from __future__ import annotations

from fractions import Fraction

from tropicurve.complexes import TropicalCurve

NEG = ("-inf",)
POS = ("+inf",)


def _line_frame(point, wc):
    """(origin, u): the line through `point` with direction wc is
    {origin + u*wc}, origin zero at the first nonzero index of wc."""
    pivot = next(i for i, x in enumerate(wc) if x)
    u = Fraction(point[pivot], wc[pivot])
    return tuple(p - u * w for p, w in zip(point, wc)), u


def line_signature(curve: TropicalCurve):
    """Canonical set of maximal weighted intervals, grouped by affine line.

    Two curves are equal up to subdivision iff their signatures agree.
    """
    buckets: dict = {}
    for e in curve.edges.values():
        d = e.direction
        lead = next(x for x in d if x)
        dc = tuple(-x for x in d) if lead < 0 else d
        aligned = dc == d
        p1 = curve.vertices[e.v1]
        origin, u1 = _line_frame(p1.finite_coords(), dc)
        if e.length is None:
            iv = (u1, POS) if aligned else (NEG, u1)
        else:
            iv = (u1, u1 + e.length) if aligned else (u1 - e.length, u1)
        buckets.setdefault((dc, origin), []).append((iv[0], iv[1], e.weight))

    def low_key(x):
        if x is NEG:
            return (-1, Fraction(0))
        return (0, x)

    sig = {}
    for key, ivs in buckets.items():
        ivs.sort(key=lambda t: low_key(t[0]))
        merged = []
        for lo, hi, w in ivs:
            if merged and merged[-1][2] == w and merged[-1][1] == lo:
                merged[-1] = (merged[-1][0], hi, w)
            else:
                merged.append((lo, hi, w))
        sig[key] = tuple(merged)
    return sig


def same_up_to_subdivision(c1: TropicalCurve, c2: TropicalCurve) -> bool:
    return line_signature(c1) == line_signature(c2)
