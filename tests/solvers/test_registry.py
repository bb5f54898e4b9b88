"""The solver table: each spec agrees with its solver class,
capability-derived dispatch sets, and unknown-method errors across every
entry point (runner, planner, protocol, CLI)."""

import inspect

import pytest

from repro.exceptions import ProtocolError, UnknownMethodError
from repro.solvers import registry
from repro.solvers.registry import SolverSpec

EXPECTED_METHODS = {"RR", "RRL", "RSD", "SR"}


def _request(method, measure="trr"):
    from repro.batch.planner import SolveRequest
    from repro.batch.scenarios import Scenario
    from repro.markov.rewards import Measure

    scenario = Scenario(name="s", family="birth_death",
                        params={"n": 4, "birth": 1.0, "death": 2.0},
                        times=(1.0,), eps=1e-8)
    return SolveRequest(scenario=scenario, measure=Measure(measure),
                        times=(1.0,), eps=1e-8, method=method)


class TestRegistrations:
    def test_all_builtin_solvers_registered(self):
        assert set(registry.known_methods()) == EXPECTED_METHODS

    def test_specs_sorted_and_complete(self):
        specs = registry.specs()
        assert [s.name for s in specs] == sorted(EXPECTED_METHODS)
        assert all(s.summary for s in specs)

    def test_case_insensitive_lookup(self):
        assert registry.get_spec("rrl").name == "RRL"

    def test_get_solver_forwards_kwargs(self):
        solver = registry.get_solver("RRL", t_factor=4.0)
        assert solver._t_factor == 4.0


class TestTable:
    """Each spec's metadata agrees with the solver class it builds."""

    @pytest.mark.parametrize("spec", registry.specs(), ids=lambda s: s.name)
    def test_name_is_the_solvers_upper_case_method_name(self, spec):
        assert spec.name == spec.name.upper()
        assert spec.build().method_name == spec.name

    @pytest.mark.parametrize("spec", registry.specs(), ids=lambda s: s.name)
    def test_stack_fusable_iff_class_defines_join_sweep(self, spec):
        assert spec.stack_fusable == hasattr(spec.constructor, "join_sweep")

    @pytest.mark.parametrize("spec", registry.specs(), ids=lambda s: s.name)
    def test_schedule_memoizable_iff_solve_takes_schedule_cache(self, spec):
        params = inspect.signature(spec.constructor.solve).parameters
        assert spec.schedule_memoizable == ("schedule_cache" in params)

    @pytest.mark.parametrize("spec", registry.specs(), ids=lambda s: s.name)
    def test_step_budget_kwarg_is_a_constructor_parameter(self, spec):
        if spec.step_budget_kwarg is not None:
            params = inspect.signature(spec.constructor).parameters
            assert spec.step_budget_kwarg in params

    def test_known_methods_sorted(self):
        methods = registry.known_methods()
        assert methods == tuple(sorted(methods))
        assert tuple(s.name for s in registry.specs()) == methods


class TestCapabilities:
    def test_capability_sets(self):
        def flagged(flag):
            return {s.name for s in registry.specs() if getattr(s, flag)}

        assert flagged("stack_fusable") == {"SR", "RSD"}
        assert flagged("schedule_memoizable") == {"RR", "RRL"}

    def test_capabilities_listing(self):
        assert registry.get_spec("RRL").capabilities() == \
            ("schedule_memoizable",)
        assert registry.get_spec("SR").capabilities() == ("stack_fusable",)
        bare = SolverSpec(name="X", constructor=dict, summary="x",
                          table_label="X")
        assert bare.capabilities() == ()

    def test_step_budget_metadata(self):
        assert registry.get_spec("SR").step_budget_kwarg == "max_steps"
        assert registry.get_spec("RR").step_budget_kwarg == \
            "inner_max_steps"
        assert registry.get_spec("RRL").step_budget_kwarg is None
        assert registry.get_spec("SR").predict_steps is not None

    def test_table_labels(self):
        assert registry.get_spec("RR").table_label == "RR/RRL"
        assert registry.get_spec("RRL").table_label == "RR/RRL"
        assert registry.get_spec("RSD").table_label == "RSD"


class TestUnknownMethodEntryPoints:
    """Every dispatch layer must reject an unknown tag with a structured
    error carrying the known-method list."""

    def test_runner_get_solver(self):
        from repro.analysis.runner import get_solver

        with pytest.raises(UnknownMethodError, match="known methods"):
            get_solver("FFT")
        # Backward compatibility: still a ValueError.
        with pytest.raises(ValueError, match="unknown method"):
            get_solver("FFT")

    def test_registry_spec_lookup(self):
        assert set(registry.known_methods()) == EXPECTED_METHODS
        assert "FFT" not in registry.known_methods()
        with pytest.raises(UnknownMethodError, match="known methods"):
            registry.get_spec("FFT")

    def test_planner_request_construction(self):
        with pytest.raises(UnknownMethodError, match="FFT"):
            _request("FFT")

    def test_protocol_decode(self):
        from repro.service.protocol import request_from_dict, \
            request_to_dict

        wire = request_to_dict(_request("RRL"))
        wire["method"] = "FFT"  # a journal from an alien deployment
        with pytest.raises(ProtocolError, match="known methods"):
            request_from_dict(wire)

    @pytest.mark.parametrize("tag", ["AU", "MS", "ODE"])
    def test_removed_tag_request_construction(self, tag):
        # AU is the tag removed in 6.0.0; MS and ODE went in 10.0.0.
        with pytest.raises(UnknownMethodError,
                           match=f"'{tag}'; known methods"):
            _request(tag)

    @pytest.mark.parametrize("tag", ["AU", "MS", "ODE"])
    def test_removed_tag_in_journal_record(self, tag):
        # A schema_version=1 record as an older journal may still hold it.
        from repro.service.protocol import request_from_dict, \
            request_to_dict

        wire = request_to_dict(_request("RRL"))
        assert wire["schema_version"] == 1
        wire["method"] = tag
        with pytest.raises(ProtocolError,
                           match="known methods: RR, RRL, RSD, SR"):
            request_from_dict(wire)

    def test_cli_batch_submit_unknown_method(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["batch", "submit", "--queue", str(tmp_path / "q"),
                     "--scenarios", "birth_death", "--methods", "FFT"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown method" in err and "RRL" in err

    def test_cli_solvers_list(self, capsys):
        from repro.cli import main

        assert main(["solvers", "list"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{len(EXPECTED_METHODS)} registered solvers")
        header, _, *body = out.splitlines()[1:]
        assert header.split() == ["method", "capabilities", "summary"]
        rows = {line.split()[0]: line for line in body}
        assert set(rows) == EXPECTED_METHODS
        assert rows["SR"].split()[1] == "stack-fusable"
        assert rows["RRL"].split()[1] == "schedule-memoizable"
        assert "TRR" not in out


class TestBothMeasures:
    """Every registered method computes TRR and MRR, so a request for
    either measure constructs, decodes and solves."""

    @pytest.mark.parametrize("method", sorted(EXPECTED_METHODS))
    def test_every_method_takes_both_measures(self, method):
        from repro.analysis.runner import solve
        from repro.markov.rewards import Measure
        from repro.models.library import two_state_availability
        from repro.service.protocol import request_from_dict, \
            request_to_dict

        for measure in ("trr", "mrr"):
            request = _request(method, measure)
            assert request_from_dict(request_to_dict(request)) == request
        model, rewards = two_state_availability()
        for measure in Measure:
            sol = solve(model, rewards, measure, [1.0], method=method)
            assert sol.measure is measure
