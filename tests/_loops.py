"""Loops that several test modules read: the named boxes' ranges, C9's generic loop, the rotating
quadrilaterals and the Wilson symmetry loops."""

import numpy as np

from dlh.holonomy import ParameterPath
from dlh.oracle import wilson_loop_oracle

EY, LAM, BB = (0.0, 1.0), (1.0, 4.0), (1.0, 4.0)
# C9's generic loop: Ex' engaged, so the field rotates on every segment but the first
C9_VERTICES = np.array(
    [
        [0.0, 0.0, 1.0, 1.0],
        [0.6, 0.2, 1.0, 1.0],
        [0.6, 0.9, 2.0, 1.0],
        [0.2, 0.9, 2.0, 2.0],
        [0.0, 0.0, 1.0, 1.0],
    ]
)

# vertices of three random closed quadrilaterals with Ex' varying, so the field rotates on every segment
_rng = np.random.default_rng(606)
ROTATING_QUADRILATERALS = [np.vstack([c, c[:1]]) for c in
                           (np.column_stack([_rng.uniform(-0.75, 0.75, (4, 2)), _rng.uniform(1.0, 4.0, (4, 2))])
                            for _ in range(3))]

# quadrilaterals through all four parameters, 16 links a side, whose holonomy
# is not diagonal: the Wilson column of the relation table in
# tests/test_relations.py. The quarter turn and the mirror map the 256-point
# square grid onto itself and reversal reverses the links, so each relation
# holds to rounding, with no discretization error
_SYMMETRY_LOOPS = [
    [(0.1, 0.2, 1.0, 1.0), (0.5, 0.1, 1.2, 1.0), (0.6, 0.5, 1.2, 1.2), (0.2, 0.6, 1.0, 1.2)],
    [(-0.3, 0.4, 1.2, 0.9), (0.2, -0.2, 1.0, 1.1), (0.7, 0.3, 1.3, 1.0), (0.1, 0.9, 1.1, 1.2)],
    [(0.8, -0.6, 1.0, 1.0), (1.2, 0.1, 1.5, 1.0), (0.4, 0.7, 1.5, 1.3), (-0.2, -0.1, 1.0, 1.3)],
]


def _closed(vertices) -> ParameterPath:
    return ParameterPath(np.array(vertices + vertices[:1], dtype=float))


def _wilson_of(grid, config, vertices):
    res = wilson_loop_oracle(grid, config, _closed(vertices), n=0, window=(0, 1), steps=64)
    assert res.points == 64
    return res.matrix
