"""Type inference for a miniature HOL-style specification language."""

from .errors import (
    ArityMismatchError,
    ConflictError,
    DuplicateNameError,
    HolTypesError,
    MismatchError,
    OccursError,
    ParseError,
    RenderError,
    UnificationError,
    UnknownNameError,
)
from .exprs import (
    AppExpr,
    CaseExpr,
    ConstExpr,
    Expr,
    LambdaExpr,
    LetInExpr,
    ListExpr,
    SetExpr,
    VarExpr,
)
from .types import (
    BOTTOM,
    Bottom,
    Constructed,
    Fun,
    Prim,
    SubstitutionSet,
    Tuple,
    TypeContext,
    TypeExpr,
    Var,
    apply_subst,
    format_type,
    free_type_vars,
    list_of,
    option_of,
    set_of,
)
from .parser import DatatypeDecl, FunctionSpec, TheoryFile, parse_theory, parse_type
from .registry import SolverRegistry, TypeScheme
from .unify import Relation, compare, reduce, relate, unify_abs, unify_app
from .infer import (
    Diagnostic,
    InferenceResult,
    InferenceSession,
    TypedSpec,
    bottom_up,
    extract_pattern_types,
    infer_spec,
    infer_theory,
)
from .emit import (
    CppTypeMap,
    emit_annotated,
    emit_json,
    format_expr,
    annotated_type,
    render_cpp_signature,
    render_cpp_type,
)

__version__ = "0.1.0"
