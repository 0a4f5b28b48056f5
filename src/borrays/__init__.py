"""Tangle blocks in a thickened sphere, their complement-group
presentations, homomorphism-class counts into symmetric groups, the
groupoid of block diffeomorphism types, and equivalence/chirality of
eventually periodic block sequences."""

from .diagrams import (
    AnnularDiagram,
    bar,
    builtin,
    concat,
    forget,
    from_braid,
    from_json,
    normalize,
    star,
    to_json,
    validate,
)
from .errors import BudgetExceededError, IntegrityError
from .groupoid import (
    DiffeoType,
    excluded_closure,
    realized_closure,
    type_compose,
    type_inverse,
)
from .homcount import (
    HomClassCount,
    count_classes_burnside,
    count_classes_enumerate,
    count_total,
    kernel_name,
)
from .labels import ALL_LABELS, BlockLabel, parse_label
from .presentations import (
    FinitePresentation,
    abelianization,
    format_presentation,
    presentation,
    tietze_simplify,
)
from .sequences import (
    EquivalenceReport,
    EventuallyPeriodicSeq,
    achiral,
    equivalence,
    parse_sequence,
    tails_equal,
    transform,
    value_at,
)

__version__ = "0.1.0"

__all__ = [
    "AnnularDiagram", "bar", "builtin", "concat", "forget", "from_braid",
    "from_json", "normalize", "star", "to_json", "validate",
    "BudgetExceededError", "IntegrityError",
    "DiffeoType", "excluded_closure", "realized_closure", "type_compose",
    "type_inverse",
    "HomClassCount", "count_classes_burnside", "count_classes_enumerate",
    "count_total", "kernel_name",
    "ALL_LABELS", "BlockLabel", "parse_label",
    "FinitePresentation", "abelianization", "format_presentation",
    "presentation", "tietze_simplify",
    "EquivalenceReport", "EventuallyPeriodicSeq", "achiral", "equivalence",
    "parse_sequence", "tails_equal", "transform", "value_at",
    "__version__",
]
