"""One record for every verdict: a value held against a bound on one side.

Every command writes its records under the top-level ``checks`` key of its
JSON output and exits 3 when one it enforces fails.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

SIDES = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}
BASES = ("derived", "statistical", "declared", "config")
"""Where a bound comes from: fixed in code by the theory or a rounding bound, an
estimate's standard errors, a constant the model declares, a cap the config sets."""


@dataclass(frozen=True)
class Check:
    """``value side bound`` must hold; the bound's origin is ``basis``."""

    name: str
    value: float
    bound: float
    side: str
    basis: str

    def __post_init__(self):
        if self.side not in SIDES or self.basis not in BASES:
            raise ValueError(f"check {self.name}: side {self.side!r}, basis {self.basis!r}")

    @property
    def passed(self) -> bool:
        # every comparison with a NaN is False, so a NaN value or bound fails on every side
        return bool(SIDES[self.side](self.value, self.bound))

    def to_json(self) -> dict:
        return {"name": self.name, "value": self.value, "bound": self.bound, "side": self.side,
                "basis": self.basis, "passed": self.passed}
