"""Numerical workbench for linear Weingarten surfaces.

Integrates profile curves (rotational in Euclidean 3-space, parabolic in the
upper half-space model of hyperbolic 3-space), builds circle-foliated
surfaces, and verifies every constructed surface against its defining
curvature relation a*H + b*K = c.
"""

from .errors import (
    BoundViolatedError,
    DegeneratePointError,
    GuardViolationError,
    NonPositiveRadiusError,
    NoRootError,
    NoSignChangeError,
    NotCircleCaseError,
    OutOfScopeParamsError,
    RootNotConvergedError,
    StepUnderflowError,
    WeingartenError,
)
from .geomcore import (
    CurvatureField,
    Curvatures,
    FundamentalForms,
    SurfacePatch,
    WeingartenParams,
    curvature_field,
    curvatures,
    finite_difference_patch,
    fundamental_forms,
    weingarten_residual,
)
from .odekit import Event, IvpSpec, Trajectory, find_root, integrate

__version__ = "0.1.0"

__all__ = [
    "BoundViolatedError",
    "CurvatureField",
    "Curvatures",
    "DegeneratePointError",
    "Event",
    "FundamentalForms",
    "GuardViolationError",
    "IvpSpec",
    "NonPositiveRadiusError",
    "NoRootError",
    "NoSignChangeError",
    "NotCircleCaseError",
    "OutOfScopeParamsError",
    "RootNotConvergedError",
    "StepUnderflowError",
    "SurfacePatch",
    "Trajectory",
    "WeingartenError",
    "WeingartenParams",
    "curvature_field",
    "curvatures",
    "find_root",
    "finite_difference_patch",
    "fundamental_forms",
    "integrate",
    "weingarten_residual",
]
