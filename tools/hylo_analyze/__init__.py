"""hylo_analyze — repo-invariant static analyzer for the hylo tree.

Grown out of an earlier regex linter: a C++-aware token-stream lexer,
a rule engine with reasoned line/block suppressions, a checked-in
baseline, and text + SARIF 2.1.0 output. DESIGN.md §14 is the rule
catalogue.
"""

from .analyzer import Analyzer  # noqa: F401
from .rules import RULES  # noqa: F401
