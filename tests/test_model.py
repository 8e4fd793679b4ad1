import math
from array import array

import pytest
from hypothesis import given, strategies as st

from conftest import BP3, const_fn, make_library, records
from aqfpopt.model import (
    CellTiming,
    Circuit,
    Connection,
    ConnectionTable,
    Gate,
    GateTable,
    OptimizationConfig,
    PiecewiseLinear,
    PwlDomainError,
    ValidationError,
    float_column,
    left_sum,
    validate_circuit,
    validate_library,
)


class TestPwlEval:
    def test_two_segment_anchor(self):
        f = PiecewiseLinear((0.0, 100.0, 300.0), ((0.3, 10.0), (0.36, 0.0)))
        assert f(200.0) == pytest.approx(72.0, abs=1e-12)

    def test_boundary_belongs_to_lower_segment(self):
        f = PiecewiseLinear((0.0, 100.0, 300.0), ((0.3, 10.0), (0.36, 0.0)))
        assert f(100.0) == pytest.approx(40.0, abs=1e-12)

    def test_identity_single_segment(self):
        f = PiecewiseLinear((0.0, 500.0), ((1.0, 0.0),))
        assert f(250.0) == 250.0

    @pytest.mark.parametrize("t", [0.0, -5.0, 300.0001, 1e9])
    def test_domain_error_names_interval(self, t):
        f = PiecewiseLinear((0.0, 100.0, 300.0), ((0.3, 10.0), (0.36, 0.0)))
        with pytest.raises(PwlDomainError, match=r"\(0.0, 300.0\]"):
            f(t)

    def test_upper_endpoint_included(self):
        f = PiecewiseLinear((0.0, 100.0, 300.0), ((0.3, 10.0), (0.36, 0.0)))
        assert f(300.0) == pytest.approx(108.0)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            PiecewiseLinear((0.0, 100.0, 300.0), ((0.3, 10.0),))
        f = PiecewiseLinear((0.0, 100.0, 300.0), ((0.3, 10.0), (0.36, 0.0)))
        with pytest.raises(ValidationError):  # a copy is checked too
            f._replace(segments=((0.3, 10.0),))
        assert f._replace(breakpoints=[0, 50, 300]).breakpoints == (0.0, 50.0, 300.0)

    def test_nonmonotone_breakpoints_rejected(self):
        with pytest.raises(ValidationError):
            PiecewiseLinear((0.0, 100.0, 100.0), ((0.3, 10.0), (0.36, 0.0)))

    @given(st.floats(min_value=1e-6, max_value=300.0, allow_nan=False))
    def test_piece_selection_matches_bruteforce(self, t):
        f = PiecewiseLinear((0.0, 50.0, 120.0, 300.0), ((0.1, 1.0), (0.2, 2.0), (0.3, 3.0)))
        expected = None
        for k in range(3):
            if f.breakpoints[k] < t <= f.breakpoints[k + 1]:
                expected = f.segments[k][0] * t + f.segments[k][1]
                break
        assert f(t) == pytest.approx(expected, abs=1e-12)


class TestLibraryValidation:
    def test_reference_fixture_is_clean(self, ref_lib):
        assert validate_library(ref_lib) == []

    def test_discontinuity_warns(self, fixture_library):
        diags = validate_library(fixture_library)
        assert diags and all(d.severity == "warning" for d in diags)
        assert {d.code for d in diags} == {"PWL_DISCONTINUITY"}

    def test_reset_exceeding_period_warns(self):
        timing = CellTiming(
            c2q=const_fn(10.0),
            setup=const_fn(5.0),
            hold=const_fn(5.0),
            rd=PiecewiseLinear((0.0, 100.0, 300.0), ((0.3, 10.0), (0.9, 80.0))),
        )
        lib = make_library({"buffer": timing})
        codes = {d.code for d in validate_library(lib)}
        assert "RESET_EXCEEDS_PERIOD" in codes

    def test_reset_check_exact_above_open_breakpoint(self):
        # rd(t) = -t + 200.5 on (100, 200]: rd(100.2) = 100.3 >= 100.2. Only
        # periods just above the open breakpoint show it.
        timing = CellTiming(
            c2q=const_fn(10.0, BP3),
            setup=const_fn(5.0, BP3),
            hold=const_fn(5.0, BP3),
            rd=PiecewiseLinear(BP3, ((0.3, 6.0), (-1.0, 200.5), (0.3, 12.0))),
        )
        lib = make_library({"buffer": timing}, bps=BP3)
        assert timing.rd(100.2) >= 100.2
        codes = {d.code for d in validate_library(lib)}
        assert codes == {"PWL_DISCONTINUITY", "RESET_EXCEEDS_PERIOD"}

    def test_rd_below_period_on_valid_libraries(self, ref_lib, three_segment_library):
        for lib in (ref_lib, three_segment_library):
            for cell in lib.cells.values():
                for t in [lib.t_min + 1e-9, 0.5 * (lib.t_min + lib.t_max), lib.t_max]:
                    assert cell.rd(t) < t

    def test_frequency_limit_tightens_period_floor(self, ref_lib):
        assert ref_lib.period_lo == pytest.approx(200.0)


class TestValidateCircuit:
    def test_well_formed_circuit_is_clean(self, two_row_circuit, fixture_library):
        assert validate_circuit(two_row_circuit, fixture_library) == []

    def test_overlong_connection(self, fixture_library):
        c = Circuit(
            name="x",
            num_rows=2,
            gates=(Gate("a", "majority3", 0, 0.0), Gate("b", "majority3", 1, 0.0)),
            connections=(Connection("a", "b", 10 * fixture_library.l_max_drive),),
        )
        diags = validate_circuit(c, fixture_library)
        assert [d.code for d in diags] == ["LENGTH_EXCEEDS_DRIVE"]
        assert diags[0].entity == "a->b"

    def test_same_row_connection(self, fixture_library):
        c = Circuit(
            name="x",
            num_rows=2,
            gates=(Gate("a", "majority3", 0, 0.0), Gate("b", "majority3", 0, 0.0)),
            connections=(Connection("a", "b", 5.0),),
        )
        assert [d.code for d in validate_circuit(c, fixture_library)] == ["NONMONOTONE_ROW"]

    def test_unknown_cell_is_hard_error(self, fixture_library):
        c = Circuit(
            name="x",
            num_rows=1,
            gates=(Gate("a", "nonexistent", 0, 0.0),),
            connections=(),
        )
        assert [d.code for d in validate_circuit(c, fixture_library)] == ["UNKNOWN_CELL"]

    def test_duplicate_and_dangling(self, fixture_library):
        c = Circuit(
            name="x",
            num_rows=2,
            gates=(Gate("a", "majority3", 0, 0.0), Gate("a", "majority3", 1, 0.0)),
            connections=(Connection("a", "ghost", 5.0),),
        )
        codes = {d.code for d in validate_circuit(c, fixture_library)}
        assert codes == {"DUPLICATE_ID", "UNKNOWN_GATE"}

    def test_row_out_of_range(self, fixture_library):
        c = Circuit(name="x", num_rows=1, gates=(Gate("a", "majority3", 3, 0.0),), connections=())
        assert [d.code for d in validate_circuit(c, fixture_library)] == ["ROW_OUT_OF_RANGE"]

    def test_clean_circuit_has_topological_row_order(self, two_row_circuit, fixture_library):
        assert validate_circuit(two_row_circuit, fixture_library) == []
        a, b = records(two_row_circuit.gates)
        for rows in ((1, 1), (1, 0)):
            c = Circuit(
                name="x",
                num_rows=2,
                gates=(a._replace(row=rows[0]), b._replace(row=rows[1])),
                connections=two_row_circuit.connections,
            )
            diags = validate_circuit(c, fixture_library)
            assert [(d.code, d.entity) for d in diags] == [("NONMONOTONE_ROW", "a->b")]
            assert diags[0].message == f"row(b)={rows[1]} must exceed row(a)={rows[0]}"


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = OptimizationConfig()
        assert cfg.priority == ("period", "latency", "slack")

    def test_slack_bounds_checked(self):
        with pytest.raises(ValidationError):
            OptimizationConfig(s_min=10.0, s_max=5.0)
        with pytest.raises(ValidationError):  # a copy is checked too
            OptimizationConfig(s_max=5.0)._replace(s_min=10.0)

    def test_period_overrides_checked(self):
        with pytest.raises(ValidationError) as e:
            OptimizationConfig(t_min_override=300.0, t_max_override=250.0)
        assert [(d.code, d.entity) for d in e.value.diagnostics] == [("INVALID_CONFIG", "t_min_override")]
        assert OptimizationConfig(t_min_override=250.0, t_max_override=250.0).t_max_override == 250.0

    @pytest.mark.parametrize("max_skip", [None, "x", 0, 2.0, True])
    def test_max_skip_must_be_an_integer(self, max_skip):
        with pytest.raises(ValidationError) as e:
            OptimizationConfig(max_skip=max_skip)
        assert [str(d) for d in e.value.diagnostics] == ["[INVALID_CONFIG] max_skip: max_skip must be an integer >= 1"]

    @pytest.mark.parametrize("field,value", [("tau", "x"), ("sigma", [1.0]), ("lam", 1j), ("s_min", None),
                                             ("s_max", "50"), ("lam", None), ("t_min_override", "250"),
                                             ("t_max_override", {}), ("s_min", True), ("tau", False)])
    def test_mistyped_number_rejected(self, field, value):
        with pytest.raises(ValidationError) as e:
            OptimizationConfig(**{field: value})
        assert [str(d) for d in e.value.diagnostics] == [f"[INVALID_CONFIG] {field}: {field} must be a real number"]

    @pytest.mark.parametrize("priority", [None, 3, ("period", 1, "slack"), ("latency", "period", None)])
    def test_mistyped_priority_rejected(self, priority):
        with pytest.raises(ValidationError) as e:
            OptimizationConfig(priority=priority)
        assert [(d.code, d.entity) for d in e.value.diagnostics] == [("INVALID_CONFIG", "priority")]

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            OptimizationConfig(tau=0.0, sigma=0.0, lam=0.0)

    def test_priority_must_cover_all_criteria(self):
        with pytest.raises(ValidationError):
            OptimizationConfig(priority=("period", "period", "slack"))

    def test_period_bounds_respect_overrides(self, ref_lib):
        cfg = OptimizationConfig(t_min_override=250.0)
        assert cfg.period_bounds(ref_lib) == (250.0, 300.0)


def test_left_sum_adds_left_to_right():
    # Python 3.12's sum gives 1.0 here: it compensates the rounding of 1e16 + 1.0.
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([]) == 0


def test_float_fields_are_float_columns():
    # A field typed float is an array('d'): one given is kept, and a list is
    # copied into one, in which an int reads as the float it equals. prop,
    # typed Optional[float], is one too, with NaN for None; its record reads
    # None again. Other fields stay as given.
    lengths = float_column([2.5])
    k = ConnectionTable(["a", "a"], ["b", "c"], lengths * 2, [None, 3])
    assert type(k.prop) is array and math.isnan(k.prop[0]) and repr(k.prop[1]) == "3.0"
    assert k.at(0) == Connection("a", "b", 2.5, None) and k.at(1).prop == 3.0
    assert ConnectionTable(["a"], ["b"], lengths, float_column([1.5])).length is lengths
    g = GateTable(["a"], ["majority3"], [0], [1])
    assert type(g.clock_offset) is array and repr(g.clock_offset.tolist()) == "[1.0]"
    assert g.row == [0] and g.at(0) == Gate("a", "majority3", 0, 1.0)
