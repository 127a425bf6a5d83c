"""Benchmark inputs, generated from the run's seed.

The seed chooses input *values* and *visit order* only.  The program
mix and every size are fixed here, so a run does the same amount of
work per operation whatever the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.standard_bounds import standard_bound_grade
from repro.core import Program, pretty_program
from repro.core.types import Discrete, Num, Tensor
from repro.programs.generators import BENCHMARK_FAMILIES, TABLE1_SIZES


@dataclass(frozen=True)
class Static:
    """One Table-1 program as source text, with Higham's bound."""

    family: str
    size: int
    source: str
    #: coefficient of ε in ``standard_bound_grade(family, size)``
    expected: Tuple[int, int]


#: The sizes ``infer`` checks: every Table-1 size, plus Horner200.  The
#: extra program makes a pass 21 programs long: with whole passes of an
#: odd count, the median and the 90th percentile fall inside one
#: program's samples, not between two programs where one more pass
#: would move them.
INFER_SIZES: Dict[str, List[int]] = {
    family: sizes + ([200] if family == "Horner" else [])
    for family, sizes in TABLE1_SIZES.items()
}


def infer_corpus() -> List[Static]:
    """The :data:`INFER_SIZES` programs, with Higham's bounds."""
    corpus = []
    for family, sizes in INFER_SIZES.items():
        for size in sizes:
            definition = BENCHMARK_FAMILIES[family](size)
            coeff = standard_bound_grade(family, size).coeff
            corpus.append(
                Static(
                    family,
                    size,
                    pretty_program(Program([definition])),
                    (coeff.numerator, coeff.denominator),
                )
            )
    return corpus


#: The audited kernels: polynomial evaluation, div + case control flow,
#: and an inner product.
KERNELS: Tuple[Tuple[str, int], ...] = (
    ("Horner", 60),
    ("SafeDiv", 50),
    ("DotProd", 100),
)

#: The hot programs behind the small-request ``serve`` traffic.
SERVE_PROGRAMS: Tuple[Tuple[str, int], ...] = tuple(
    (family, size)
    for family, sizes in (
        ("Horner", (8, 16, 24, 32)),
        ("SafeDiv", (4, 8, 12, 16)),
        ("DotProd", (8, 16, 24, 32)),
        ("Sum", (8, 16, 24, 32)),
    )
    for size in sizes
)


def kernel_source(family: str, size: int) -> str:
    return pretty_program(Program([BENCHMARK_FAMILIES[family](size)]))


def _leaf_count(ty) -> int:
    base = ty.inner if isinstance(ty, Discrete) else ty
    if isinstance(base, Num):
        return 1
    if isinstance(base, Tensor):
        return _leaf_count(base.left) + _leaf_count(base.right)
    raise ValueError(f"benchmark kernels take numbers and vectors, not {ty}")


def kernel_rows(
    source: str, n_rows: int, rng: np.random.Generator
) -> Dict[str, np.ndarray]:
    """``n_rows`` environment rows for the kernel in ``source``: one
    ``(n_rows, leaves)`` array per parameter (1-D for a scalar).

    Values lie in [0.5, 1.5]: no divisor is zero, no power overflows,
    so every row of every kernel is a sound, exceptional-case-free
    audit.
    """
    from repro.core import parse_program

    definition = parse_program(source).main
    inputs: Dict[str, np.ndarray] = {}
    for param in definition.params:
        leaves = _leaf_count(param.ty)
        values = rng.uniform(0.5, 1.5, size=(n_rows, leaves))
        inputs[param.name] = values[:, 0] if leaves == 1 else values
    return inputs


def request_body(source: str, inputs: Dict[str, np.ndarray], **spec) -> bytes:
    """A ``POST /audit`` body for ``repro serve``."""
    payload = {
        "source": source,
        "inputs": {name: rows.tolist() for name, rows in inputs.items()},
        **spec,
    }
    return json.dumps(payload).encode("utf-8")

