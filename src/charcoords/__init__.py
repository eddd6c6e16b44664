"""charcoords: exact character coordinates of cotangent powers and
cotangent numbers in cyclotomic fields, with machine verification of the
closed-form identities relating them to generalized Bernoulli numbers.

The names of charcoords.series and charcoords.verify (and those two
modules) are imported on first access, not with the package, so that a
CLI command that runs no verify suite loads neither; verify itself
imports series only when its series_oracle suite runs."""

__version__ = "0.1.0"

import importlib

from .arith import TruncationError, euler_phi
from .bernoulli import (
    bernoulli_number,
    bernoulli_polynomial,
    generalized_bernoulli,
)
from .characters import (
    CharacterGroup,
    DirichletCharacter,
    character_group,
    enumerate_characters,
    gauss_sum,
    gauss_sum_float,
)
from .combinatorics import (
    bernoulli_conv_coeff,
    bernoulli_conv_coeff_bruteforce,
    coeff_bridge,
    cot_power_coeff,
    stirling_first_unsigned,
)
from .coordinates import (
    coord_cotangent_closed,
    coord_definitional,
    coord_one,
    coord_power_closed,
    coord_power_primitive,
    coords_definitional_many,
    direct_sum_float,
    reconstruct,
)
from .cotangent import (
    cot_derivative_poly,
    cotangent_number,
    icot_power,
    icot_value,
)
from .cyclotomic import (
    CycElem,
    FieldMembershipError,
    cyclotomic_polynomial,
    project_to_subfield,
    to_common_order,
)

# name -> the module it is imported from on first access (PEP 562), the
# module's own name included
_LAZY = dict.fromkeys((
    "series",
    "LaurentSeries",
    "bernoulli_conv_coeff_from_series",
    "series_icot_half",
    "series_one_minus_exp_inv",
    "verify_power_decomposition",
    "verify_stirling_identity",
), "series") | dict.fromkeys((
    "verify",
    "SUITE_NAMES",
    "SuiteConfig",
    "SuiteResult",
    "run_suites",
), "verify")


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = importlib.import_module("." + module, __name__)
    return value if name == module else getattr(value, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "__version__",
    "euler_phi",
    "bernoulli_number",
    "bernoulli_polynomial",
    "generalized_bernoulli",
    "CharacterGroup",
    "DirichletCharacter",
    "character_group",
    "enumerate_characters",
    "gauss_sum",
    "bernoulli_conv_coeff",
    "bernoulli_conv_coeff_bruteforce",
    "coeff_bridge",
    "cot_power_coeff",
    "stirling_first_unsigned",
    "coord_cotangent_closed",
    "coord_definitional",
    "coord_one",
    "coord_power_closed",
    "coord_power_primitive",
    "coords_definitional_many",
    "direct_sum_float",
    "gauss_sum_float",
    "reconstruct",
    "cot_derivative_poly",
    "cotangent_number",
    "icot_power",
    "icot_value",
    "CycElem",
    "FieldMembershipError",
    "cyclotomic_polynomial",
    "project_to_subfield",
    "to_common_order",
    "LaurentSeries",
    "TruncationError",
    "bernoulli_conv_coeff_from_series",
    "series_icot_half",
    "series_one_minus_exp_inv",
    "verify_power_decomposition",
    "verify_stirling_identity",
    "SUITE_NAMES",
    "SuiteConfig",
    "SuiteResult",
    "run_suites",
]
