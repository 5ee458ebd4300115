"""Computation in finitely generated free adequate semigroups and monoids.

Elements are represented as birooted edge-labelled trees.  The package
provides the formula language, tree evaluation, morphism testing, pruning to
minimal retracts, canonical normal forms, and top-level word-problem and
identity-checking procedures.

``import adequate`` loads only that decision pipeline.  The seeded instance
generators (``adequate.generate``) load on first use and still resolve as
attributes of this package.  The brute-force oracles that judge the
pipeline on small inputs are not exported: import them from
``adequate.oracles``.  Only ``exists_morphism_bruteforce`` still resolves
here, unlisted, because the benchmark's input tests import it by this name.
"""

from .canonical import canonical_formula, canonical_word
from .errors import (
    AlphabetMismatch,
    BadVertexId,
    BareGroup,
    DanglingUnary,
    EmptyNotAllowed,
    Error,
    FormulaError,
    NoTrunk,
    NotATree,
    OpNotInSignature,
    TreeError,
    UnbalancedParenthesis,
    UnknownSymbol,
)
from .formula import (
    DEFAULT_MODE,
    Alphabet,
    Formula,
    Letter,
    Mode,
    Sidedness,
    Unary,
    UnaryOp,
    concat,
    ensure_admissible,
    occurrence_count,
    occurring_letters,
    parse,
    render,
)
from .homomorphism import (
    CandidateSets,
    VertexMorphism,
    candidate_sets,
    exists_morphism,
    extract_morphism,
    is_morphism,
)
from .pruning import (
    PrunedWitness,
    is_pruned,
    prune,
    pruned_plus,
    pruned_product,
    pruned_star,
    pruned_vertex_set,
)
from .solver import (
    KNOWN_IDENTITIES,
    KNOWN_NON_IDENTITIES,
    check_identity,
    equal,
    is_idempotent,
    normal_form,
)
from .tree import (
    Edge,
    SigmaTree,
    TraversalOrder,
    Trunk,
    base_tree,
    descendants,
    evaluate,
    from_json,
    to_dot,
    to_json,
    traversal,
    trivial_tree,
    trunk,
    unpruned_plus,
    unpruned_product,
    unpruned_star,
    validate,
)

__version__ = "0.1.0"

# Names loaded on first access (PEP 562), by the submodule that defines them.
_LAZY = {
    "enumerate_trees": "generate",
    "random_formula": "generate",
    "random_relabelling": "generate",
    "random_tree": "generate",
    "exists_morphism_bruteforce": "oracles",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "Alphabet",
    "AlphabetMismatch",
    "BadVertexId",
    "BareGroup",
    "CandidateSets",
    "DEFAULT_MODE",
    "DanglingUnary",
    "Edge",
    "EmptyNotAllowed",
    "Error",
    "Formula",
    "FormulaError",
    "KNOWN_IDENTITIES",
    "KNOWN_NON_IDENTITIES",
    "Letter",
    "Mode",
    "NoTrunk",
    "NotATree",
    "OpNotInSignature",
    "PrunedWitness",
    "Sidedness",
    "SigmaTree",
    "TraversalOrder",
    "TreeError",
    "Trunk",
    "Unary",
    "UnaryOp",
    "UnbalancedParenthesis",
    "UnknownSymbol",
    "VertexMorphism",
    "base_tree",
    "candidate_sets",
    "canonical_formula",
    "canonical_word",
    "check_identity",
    "concat",
    "descendants",
    "ensure_admissible",
    "enumerate_trees",
    "equal",
    "evaluate",
    "exists_morphism",
    "extract_morphism",
    "from_json",
    "is_idempotent",
    "is_morphism",
    "is_pruned",
    "normal_form",
    "occurrence_count",
    "occurring_letters",
    "parse",
    "prune",
    "pruned_plus",
    "pruned_product",
    "pruned_star",
    "pruned_vertex_set",
    "random_formula",
    "random_relabelling",
    "random_tree",
    "render",
    "to_dot",
    "to_json",
    "traversal",
    "trivial_tree",
    "trunk",
    "unpruned_plus",
    "unpruned_product",
    "unpruned_star",
    "validate",
]
