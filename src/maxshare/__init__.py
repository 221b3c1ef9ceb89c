"""Hash-consing and memoization toolkit: a generic interning pool with
unique identifiers, memoizing fixpoint combinators, a reduced ordered
BDD engine, and a hash-consed lambda-calculus normalizer."""

from .intern import Pool, PoolStats, UnknownIdError
from .memo import (
    DepthExceededError,
    MemoContractError,
    MemoTable,
    memo_fix,
)
from .bdd import (
    FALSE,
    TRUE,
    BddManager,
    BddNode,
    IllOrderedError,
    UnboundVariableError,
)
from .lam import LambdaManager, ShapeError

__all__ = [
    "BddManager",
    "BddNode",
    "DepthExceededError",
    "FALSE",
    "IllOrderedError",
    "LambdaManager",
    "MemoContractError",
    "MemoTable",
    "Pool",
    "PoolStats",
    "ShapeError",
    "TRUE",
    "UnboundVariableError",
    "UnknownIdError",
    "memo_fix",
]

__version__ = "0.1.0"
