"""Config validation, strategy specs, and config-file parsing."""

import math

import pytest
from hypothesis import given, strategies as st

from cdnsim.model import (
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
    uniform_rates,
    validate_config,
)


def make_config(**overrides):
    return default_config(**overrides)


def test_default_config_is_valid():
    cfg = make_config()
    assert cfg.n_servers == 100
    assert cfg.n_users == 100
    assert cfg.n_files == 70
    assert cfg.arrival_rates == (0.9,) * 100
    assert cfg.service == ServiceSpec.exponential(1.0)
    assert validate_config(cfg) is cfg


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
        make_config(service=ServiceSpec.exponential(0.0))
    # wrong vector length is also a rate problem
    with pytest.raises(RateError):
        make_config(arrival_rates=(0.9, 0.9))


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
        arrival_rates=uniform_rates(3, 0.5),
        service=ServiceSpec.exponential(1.0),
        horizon_events=horizon,
        warmup_events=warmup,
    )
    feasible = (
        cache_size <= n_files
        and n_servers * cache_size >= n_files
        and warmup < horizon
    )
    if feasible:
        validate_config(SimConfig(**kwargs))
    else:
        with pytest.raises(ConfigError):
            validate_config(SimConfig(**kwargs))


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
    m = CostMatrix.from_rows([[1, 2.5], [0, 4]])
    assert m.n_users == 2 and m.n_servers == 2
    assert m.entries[1] == (0.0, 4.0)
    assert all(type(c) is float for row in m.entries for c in row)
    assert CostMatrix.from_rows([[-0.0, 1]]).entries[0] == (0.0, 1.0)  # -0.0 is a zero cost
    with pytest.raises(ConfigError):
        CostMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ConfigError):
        CostMatrix.from_rows([[1, -2]])
    with pytest.raises(ConfigError):
        CostMatrix.from_rows([[float("nan"), 1]])
    with pytest.raises(ConfigError):
        CostMatrix.from_rows([])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -0.5])
def test_cost_matrix_names_the_first_bad_entry(bad):
    # The bad entry sits mid-row, after a valid row and before another bad
    # entry; the message must name its exact position and value.
    rows = [[0.0, 1.0, 2.0, 5.0], [3, 4.0, bad, -1.0]]
    with pytest.raises(ConfigError) as excinfo:
        CostMatrix.from_rows(rows)
    assert str(excinfo.value) == f"cost[1][2] must be finite and >= 0, got {bad}"


def test_cache_allocation_validation():
    ok = CacheAllocation.from_sets([{0, 1}, {1, 2}], n_files=3)
    assert ok.cache_size == 2 and ok.n_servers == 2
    with pytest.raises(ConfigError):  # file 2 uncovered
        CacheAllocation.from_sets([{0}, {1}], n_files=3)
    with pytest.raises(ConfigError):  # unequal cache sizes
        CacheAllocation.from_sets([{0, 1}, {2}], n_files=3)
    with pytest.raises(ConfigError, match=r"^server 0 caches unknown file 3$"):
        CacheAllocation.from_sets([{0, 3}, {1, 2}], n_files=3)
    # The first server holding an unknown file is named, with that file.
    with pytest.raises(ConfigError, match=r"^server 2 caches unknown file -1$"):
        CacheAllocation.from_sets([{0, 1}, {1, 2}, {-1, 2}, {0, 5}], n_files=3)


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
    assert cfg.service == ServiceSpec.exponential(2.0)
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


def test_config_objects_are_immutable():
    cfg = make_config()
    with pytest.raises(Exception):
        cfg.n_servers = 5
    spec = StrategySpec.parse("pss:0.5")
    with pytest.raises(Exception):
        spec.param = 0.9
