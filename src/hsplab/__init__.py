"""hsplab: hidden-subgroup solvers over black-box groups, with the Abelian
quantum primitive simulated exactly and brute-force oracles for verification.
"""

from .core import (
    BlackBoxGroup,
    GroupElement,
    GroupSpec,
    HidingOracle,
    QueryStats,
    enumerate_closure,
    make_group,
    make_hiding_oracle,
)
from .errors import HspError
from .linalg import (
    AbelianStructure,
    decompose_abelian,
    dual_subgroup,
    smith_normal_form,
    solve_character_kernel,
)
from .membership import MembershipAnswer, constructive_membership, extract_expression
from .normalsub import (
    abelian_quotient_presentation,
    hidden_normal_subgroup,
    normal_closure,
)
from .sim import (
    QuantumFunctionOracle,
    SolverConfig,
    abelian_hsp,
    find_order,
    sample_character,
)
from .solvers import (
    SubgroupResult,
    solve_abelian,
    solve_elem2_cyclic,
    solve_elem2_small_quotient,
    solve_small_commutator,
)
from .verify import brute_force_hsp, chi_square_uniform, subgroups_of, verify_hiding

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
