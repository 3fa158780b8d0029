import pytest

from tropicurve.divisors import is_principal
from tropicurve.graphs import build_extended, build_graph
from tropicurve.synthesis import Frames, _aj_corrected_divisor
from tropicurve.tropicalize import Embedding


def theta():
    return build_graph(
        ["u", "v"], [("e1", "u", "v", 1), ("e2", "u", "v", 2), ("e3", "u", "v", 3)]
    )


def dumbbell():
    return build_graph(
        ["u", "v"], [("l0", "u", "u", 2), ("bar", "u", "v", 1), ("l1", "v", "v", 3)]
    )


@pytest.mark.parametrize("graph, keep", [(theta(), "e1"), (dumbbell(), "l0.0")])
def test_aj_corrections_are_principal_and_spare_the_kept_frame(graph, keep):
    emb = Embedding(build_extended(graph, []), [])
    d = _aj_corrected_divisor(emb, Frames(emb.skeleton), keep)
    assert is_principal(graph, d).principal
    on_kept = [(pt, c) for pt, c in d.terms if not pt.is_vertex and pt.edge == keep]
    assert sorted(c for _pt, c in on_kept) == [-1, 1]  # only the two base points
    assert len(d.terms) > 2  # the base pair alone is not principal
