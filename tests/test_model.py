"""Config validation, strategy specs, config-file parsing, and the input
and float-sum rules that model keeps for the other modules."""

import math
import re
from dataclasses import replace
from operator import add

import pytest
from hypothesis import given, strategies as st

from cdnsim.engine import run_simulation
from cdnsim.model import (
    STRATEGY_PARAMS,
    AggregateMemoryError,
    CacheAllocation,
    CacheSizeError,
    ConfigError,
    CostMatrix,
    HorizonError,
    RateError,
    ServiceSpec,
    SimConfig,
    StrategySpec,
    default_config,
    parse_config,
    read_number,
    seq_sum,
    strategy_param,
)
from cdnsim.popularity import zipf_profile
from cdnsim.topology import LatticeLayout, random_lattice_layout


def make_config(**overrides):
    return default_config(**overrides)


def test_default_config_is_valid():
    cfg = make_config()
    assert cfg.n_servers == 100
    assert cfg.n_users == 100
    assert cfg.n_files == 70
    assert cfg.arrival_rates == (0.9,) * 100
    assert cfg.service == ServiceSpec("exp", 1.0)
    assert replace(cfg) == cfg


def test_insufficient_total_memory_is_its_own_error():
    with pytest.raises(AggregateMemoryError):
        make_config(n_servers=4, cache_size=2, n_files=9)


def test_cache_larger_than_library_is_its_own_error():
    with pytest.raises(CacheSizeError):
        make_config(n_files=4, cache_size=5)


def test_nonpositive_rates_are_rate_errors():
    with pytest.raises(RateError):
        make_config(arrival_rates=(0.9,) * 99 + (0.0,))
    with pytest.raises(RateError):
        make_config(arrival_rates=(0.9,) * 99 + (-1.0,))
    with pytest.raises(RateError):
        make_config(service=ServiceSpec("exp", 0.0))
    # wrong vector length is also a rate problem
    with pytest.raises(RateError):
        make_config(arrival_rates=(0.9, 0.9))


def test_arrival_rates_whose_total_overflows_are_rate_errors():
    # Each rate is finite; their left-to-right total is not.
    rates = (1e308,) * 100
    with pytest.raises(RateError, match=r"^arrival rates must have a finite total, got inf$"):
        make_config(arrival_rates=rates)
    with pytest.raises(RateError, match="finite total"):
        run_simulation(replace(make_config(horizon_events=100), arrival_rates=rates),
                       "mincost", 1)
    assert make_config(arrival_rates=(8e307, 8e307) + (0.9,) * 98).arrival_rates[0] == 8e307


def test_subnormal_arrival_rate_totals_are_rate_errors():
    # At or below the smallest normal float, u * total can round up to the
    # total itself and the user draw would find no user.
    for rates, total in (((5e-324,) * 100, "4.94e-322"),
                         ((1e-310,) * 100, "9.99999999999997e-309")):
        message = re.escape(f"arrival rates must have a total above 2.2250738585072014e-308, "
                            f"got {total}")
        with pytest.raises(RateError, match=f"^{message}$"):
            run_simulation(default_config(arrival_rates=rates, horizon_events=2000,
                                          warmup_events=10), "mincost", 1)
        with pytest.raises(RateError, match=f"^{message}$"):
            SimConfig(n_servers=1, n_users=100, n_files=1, cache_size=1, arrival_rates=rates,
                      service=ServiceSpec("exp", 1.0), horizon_events=10)
    assert make_config(arrival_rates=(1e-300,) * 100).arrival_rates[0] == 1e-300
    # The bound is strict: a total of exactly the smallest normal float is refused.
    floor = 2.2250738585072014e-308
    one_user = dict(n_servers=1, n_users=1, n_files=1, cache_size=1,
                    service=ServiceSpec("exp", 1.0), horizon_events=10)
    with pytest.raises(RateError, match="total above"):
        SimConfig(arrival_rates=(floor,), **one_user)
    above = math.nextafter(floor, math.inf)
    assert SimConfig(arrival_rates=(above,), **one_user).arrival_rates == (above,)


def test_configs_and_service_specs_are_checked_when_built():
    cfg = make_config()
    with pytest.raises(ConfigError, match="^cache_size must be >= 1$"):
        replace(cfg, cache_size=0)
    with pytest.raises(
        HorizonError, match="^warmup_events 100000 leaves no counted arrivals out of 100000$"
    ):
        replace(cfg, warmup_events=cfg.horizon_events)
    with pytest.raises(RateError, match="^service parameter must be > 0, got 0.0$"):
        ServiceSpec("exp", 0.0)
    with pytest.raises(RateError, match="^service parameter must be > 0, got inf$"):
        ServiceSpec("const", math.inf)
    with pytest.raises(RateError, match="^service parameter must be > 0, got nan$"):
        ServiceSpec.parse("exp:nan")


def test_warmup_must_leave_counted_events():
    with pytest.raises(HorizonError):
        make_config(horizon_events=100, warmup_events=100)
    with pytest.raises(HorizonError):
        make_config(horizon_events=100, warmup_events=500)
    cfg = make_config(horizon_events=100, warmup_events=99)
    assert cfg.warmup_events == 99


def test_other_invalid_fields_raise_config_error():
    for bad in (
        dict(n_servers=0),
        dict(n_files=0),
        dict(cache_size=0),
        dict(horizon_events=0),
        dict(lattice_side=0),
        dict(zipf_beta=-0.5),
        dict(base_seed=-1),
        dict(base_seed=2**64),
    ):
        with pytest.raises(ConfigError):
            make_config(**bad)


@given(
    n_servers=st.integers(1, 40),
    n_files=st.integers(1, 60),
    cache_size=st.integers(1, 60),
    warmup=st.integers(0, 50),
    horizon=st.integers(1, 100),
)
def test_validate_accepts_exactly_the_invariant_region(
    n_servers, n_files, cache_size, warmup, horizon
):
    kwargs = dict(
        n_servers=n_servers,
        n_users=3,
        n_files=n_files,
        cache_size=cache_size,
        arrival_rates=(0.5,) * 3,
        service=ServiceSpec("exp", 1.0),
        horizon_events=horizon,
        warmup_events=warmup,
    )
    feasible = (
        cache_size <= n_files
        and n_servers * cache_size >= n_files
        and warmup < horizon
    )
    if feasible:
        SimConfig(**kwargs)
    else:
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)


def test_strategy_spec_parsing_roundtrip():
    for text, kind, param in (
        ("mincost", "mincost", None),
        ("minqueue", "minqueue", None),
        ("pss:0.5", "pss", 0.5),
        ("wmc:0.3", "wmc", 0.3),
        ("mcs:2", "mcs", 2),
    ):
        spec = StrategySpec.parse(text)
        assert spec.kind == kind
        assert spec.param == param
        assert StrategySpec.parse(str(spec)) == spec


def test_strategy_spec_rejects_bad_input():
    with pytest.raises(ConfigError):
        StrategySpec.parse("nearest")
    with pytest.raises(ConfigError):
        StrategySpec.parse("pss")  # missing parameter
    with pytest.raises(ConfigError):
        StrategySpec.parse("pss:1.5")
    with pytest.raises(ConfigError):
        StrategySpec.parse("wmc:-0.1")
    with pytest.raises(ConfigError):
        StrategySpec.parse("mcs:0")
    with pytest.raises(ConfigError):
        StrategySpec.parse("mcs:1.5")
    with pytest.raises(ConfigError):
        StrategySpec.parse("mincost:3")
    with pytest.raises(ConfigError):
        StrategySpec.parse("pss:abc")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_strategy_spec_rejects_non_finite_parameters(bad):
    # int() of these raises OverflowError or a bare ValueError; a spec
    # must name the problem as a ConfigError instead.
    for kind in ("mcs", "pss", "wmc"):
        with pytest.raises(ConfigError, match=kind):
            StrategySpec(kind, bad)
        with pytest.raises(ConfigError, match=kind):
            StrategySpec.parse(f"{kind}:{bad}")


def test_service_spec_parsing():
    exp = ServiceSpec.parse("exp:2.0")
    assert exp.kind == "exp" and exp.value == 2.0 and exp.mean() == 0.5
    const = ServiceSpec.parse("const:3")
    assert const.kind == "const" and const.mean() == 3.0
    with pytest.raises(ConfigError):
        ServiceSpec.parse("uniform:1")
    with pytest.raises(ConfigError):
        ServiceSpec.parse("exp")
    with pytest.raises(ConfigError):
        ServiceSpec.parse("exp:fast")


def test_cost_matrix_validation():
    m = CostMatrix([[1, 2.5], [0, 4]])
    assert m.n_users == 2 and m.n_servers == 2
    assert m.entries[1] == (0.0, 4.0)
    assert all(type(c) is float for row in m.entries for c in row)
    assert CostMatrix([[-0.0, 1]]).entries[0] == (0.0, 1.0)  # -0.0 is a zero cost
    with pytest.raises(ConfigError):
        CostMatrix([[1, 2], [3]])
    with pytest.raises(ConfigError):
        CostMatrix([[1, -2]])
    with pytest.raises(ConfigError):
        CostMatrix([[float("nan"), 1]])
    with pytest.raises(ConfigError):
        CostMatrix([])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -0.5])
def test_cost_matrix_names_the_first_bad_entry(bad):
    # The bad entry sits mid-row, after a valid row and before another bad
    # entry; the message must name its exact position and value.
    rows = [[0.0, 1.0, 2.0, 5.0], [3, 4.0, bad, -1.0]]
    with pytest.raises(ConfigError) as excinfo:
        CostMatrix(rows)
    assert str(excinfo.value) == f"cost[1][2] must be finite and >= 0, got {bad}"


def test_cost_matrix_of_sums_checks_the_distance_rows():
    # The Manhattan builder's path takes its sums as given and checks the
    # entry rule on the x and y distance rows they are summed from.
    def of_sums(x_row, y_row):
        return CostMatrix._of_sums((tuple(map(add, x_row, y_row)),), [x_row], [y_row])

    assert of_sums([0.0, 2.0], [1.0, 0.0]) == CostMatrix([[1.0, 2.0]])
    nan, inf = float("nan"), float("inf")
    for x_row, y_row, message in [
        ([0.0, nan], [1.0, 0.0], "x distance[1] must be finite and >= 0, got nan"),
        # Every sum is >= 0, but a distance below 0 still breaks the rule.
        ([2.0, 3.0], [1.0, -1.0], "y distance[1] must be finite and >= 0, got -1.0"),
        ([inf, 0.0], [1.0, 0.0], "x distance[0] must be finite and >= 0, got inf"),
        ([1e308, 0.0], [1.5e308, 0.0], "cost may overflow: largest x distance 1e+308 "
                                       "plus largest y distance 1.5e+308 is not finite"),
    ]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            of_sums(x_row, y_row)
    with pytest.raises(ConfigError, match="^cost matrix must be non-empty$"):
        CostMatrix._of_sums(((),), [[]], [[]])


def test_cache_allocation_validation():
    ok = CacheAllocation([{0, 1}, {1, 2}], n_files=3)
    assert ok.cache_size == 2 and ok.n_servers == 2
    # The constructor makes each server's files a frozenset, in a tuple.
    assert ok.server_files == (frozenset({0, 1}), frozenset({1, 2}))
    assert all(type(files) is frozenset for files in ok.server_files)
    with pytest.raises(ConfigError):  # file 2 uncovered
        CacheAllocation([{0}, {1}], n_files=3)
    with pytest.raises(ConfigError):  # unequal cache sizes
        CacheAllocation([{0, 1}, {2}], n_files=3)
    with pytest.raises(ConfigError, match=r"^server 0 caches unknown file 3$"):
        CacheAllocation([{0, 3}, {1, 2}], n_files=3)
    # The first server holding an unknown file is named, with that file.
    with pytest.raises(ConfigError, match=r"^server 2 caches unknown file -1$"):
        CacheAllocation([{0, 1}, {1, 2}, {-1, 2}, {0, 5}], n_files=3)
    with pytest.raises(ConfigError, match="at least one server"):
        CacheAllocation((), 1)


CONFIG_TEXT = """
# system size
n_servers = 10
n_users = 5
n_files = 7          # library
cache_size = 2
zipf_beta = 1.0
arrival_rate = 0.8
service = exp:2.0
horizon_events = 5000
warmup_events = 100
lattice_side = 6
base_seed = 99
strategy = pss:0.25
"""


def test_parse_config_full_file():
    cfg, strategy = parse_config(CONFIG_TEXT)
    assert cfg.n_servers == 10
    assert cfg.n_users == 5
    assert cfg.arrival_rates == (0.8,) * 5
    assert cfg.service == ServiceSpec("exp", 2.0)
    assert cfg.zipf_beta == 1.0
    assert cfg.base_seed == 99
    assert strategy == StrategySpec("pss", 0.25)


def test_parse_config_defaults_and_rate_vector():
    cfg, strategy = parse_config("arrival_rates = 0.5,0.6\nn_users = 2\nn_servers = 50\n")
    assert cfg.arrival_rates == (0.5, 0.6)
    assert cfg.n_files == 70  # defaults survive
    assert strategy is None


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config("n_servers 10")
    with pytest.raises(ConfigError):
        parse_config("mystery_knob = 3")
    with pytest.raises(ConfigError):
        parse_config("n_servers = ten")
    with pytest.raises(ConfigError):
        parse_config("n_servers = 10\nn_servers = 12")
    with pytest.raises(ConfigError):
        parse_config("arrival_rate = 0.5\narrival_rates = 0.5,0.5")
    with pytest.raises(ConfigError):
        parse_config("n_users = 3\narrival_rates = 0.5,0.5")  # wrong length
    with pytest.raises(ConfigError, match="warmup_events must be >= 0"):
        parse_config("warmup_events = -1")


def test_parse_config_names_the_unreadable_key_and_text():
    for key in ("zipf_beta", "arrival_rate"):
        with pytest.raises(ConfigError, match=rf"'{key}'.*'x'"):
            parse_config(f"{key} = x")
    with pytest.raises(ConfigError, match="'arrival_rates'.*'x'"):
        parse_config("n_users = 2\narrival_rates = 0.9,x")


def test_read_number_has_one_error_shape():
    assert read_number(" 2.5", "here") == 2.5
    assert read_number("7 ", "here", int) == 7
    with pytest.raises(ConfigError, match="^here has a non-numeric value 'x'$"):
        read_number(" x ", "here")
    with pytest.raises(ConfigError, match="^here has a non-integer value '1.5'$"):
        read_number("1.5", "here", int)
    # Config keys, spec strings and their parameters share it.
    with pytest.raises(ConfigError, match="^config key 'n_servers' has a non-integer value 'ten'$"):
        parse_config("n_servers = ten")
    with pytest.raises(ConfigError, match="^strategy spec 'pss:abc' has a non-numeric value 'abc'$"):
        StrategySpec.parse("pss:abc")
    with pytest.raises(ConfigError, match="^service spec 'exp:fast' has a non-numeric value 'fast'$"):
        ServiceSpec.parse("exp:fast")


def test_strategy_param_table_names_every_family():
    assert list(STRATEGY_PARAMS) == ["mincost", "minqueue", "pss", "wmc", "mcs"]
    assert strategy_param("pss") == ("zeta", "switch probability")
    assert strategy_param("minqueue") is None
    with pytest.raises(ConfigError, match="^unknown strategy 'nearest'$"):
        strategy_param("nearest")
    with pytest.raises(ConfigError, match="^mcs needs a probe count$"):
        StrategySpec("mcs")


def test_config_objects_are_immutable():
    cfg = make_config()
    with pytest.raises(Exception):
        cfg.n_servers = 5
    spec = StrategySpec.parse("pss:0.5")
    with pytest.raises(Exception):
        spec.param = 0.9


# The tests below need no scipy, so they run on every Python version the
# suite supports, where sum()'s rounding differs.

def test_seq_sum_adds_left_to_right():
    # fsum, and sum() on Python 3.12 and later, give 1.0 here.
    assert seq_sum([1e16, 1.0, -1e16]) == 0.0
    assert seq_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert seq_sum([]) == 0.0


def test_zipf_profile_has_the_same_bits_on_every_python_version():
    # sum() on Python 3.12 and 3.13 gave 0x1.198e7752d8e4ap-3, 2 ulp off.
    assert zipf_profile(70, 0.8).probs[0].hex() == "0x1.198e7752d8e4cp-3"


@pytest.mark.parametrize("beta", [-0.5, math.inf, math.nan])
def test_zipf_exponent_rule_is_shared_by_config_and_profile(beta):
    message = f"^zipf_beta must be a finite value >= 0, got {beta}$"
    with pytest.raises(ConfigError, match=message):
        make_config(zipf_beta=beta)
    with pytest.raises(ConfigError, match=message):
        zipf_profile(70, beta)


def test_lattice_side_rule_is_shared_by_config_and_layouts():
    message = "^lattice side must be >= 1, got 0$"
    with pytest.raises(ConfigError, match=message):
        make_config(lattice_side=0)
    with pytest.raises(ConfigError, match=message):
        LatticeLayout(0, (), ())
    with pytest.raises(ConfigError, match=message):
        random_lattice_layout(2, 2, 0, None)


def test_config_lattice_side_is_bounded_where_distances_stay_exact():
    # Up to 2**52 every distance and every sum of two is an exact float.
    assert make_config(lattice_side=2**52).lattice_side == 2**52
    side = 2**52 + 1
    with pytest.raises(ConfigError, match=rf"^lattice_side must be <= 2\*\*52, got {side}$"):
        make_config(lattice_side=side)
