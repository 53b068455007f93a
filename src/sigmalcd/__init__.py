"""Exact finite-field coding theory centered on twisted complementary
duals: semi-linear sigma maps, sigma-duals and hulls, constructive
complementary-dual and complementary-pair builders, generalized
quasi-cyclic constituent criteria, abelian group-algebra idempotent tests,
and an independent brute-force oracle."""

from .abelian import (
    AbelianGroup,
    GroupAlgebraElement,
    enumerate_ideals,
    find_idempotent_generator,
    ga_add,
    ga_element,
    ga_mul,
    ga_one,
    ideal_from_generator,
    is_abelian_mu1_lcd,
    is_ideal,
    is_idempotent,
    mu_minus1_ga,
    parse_group,
)
from .codes import (
    LcpPair,
    LinearCode,
    SemiLinearMap,
    apply_sigma,
    build_lcp,
    gram,
    hull_basis,
    hull_dim,
    is_sigma_lcd,
    is_sigma_self_dual,
    is_sigma_self_orthogonal,
    make_lcd_sigma,
    normalize_hull,
    sigma_dual,
)
from .cyclotomic import CyclotomicContext, GammaPartition, gamma_partition, mult_order
from .errors import SigmaLcdError
from .field import Field, Embedding, default_modulus, embedding, field
from .gqc import (
    Constituent,
    GqcCode,
    MaximalCheck,
    ProductResult,
    constituent,
    cross_block_lcd,
    disjoint_support_lcd,
    divisor_cyclic_codes,
    hermitian_v_dual,
    is_mua_lcd,
    is_mua_self_dual,
    is_mua_self_orthogonal,
    maximal_one_gen_check,
    one_gen_code,
    one_gen_lcd_eval,
    one_gen_lcd_gcd,
    one_gen_self_orthogonal_eval,
    one_gen_self_orthogonal_gcd,
    product_lcd_gqc,
    reversal_sigma_lcd,
    trivial_constituent_lcd,
    v_dual,
)
from .oracle import (
    brute_hull_dim,
    brute_intersection_dim,
    brute_min_distance,
    enumerate_codewords,
    exhaustive_sigma_search,
    weight_distribution,
)

__version__ = "0.1.0"
