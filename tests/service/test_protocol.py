"""Wire-protocol round trips: every protocol object must survive
encode → JSON text → decode, and a decoded request must *solve*
bit-identically to the in-memory original — for every scenario family
and every method. Plus strict validation: wrong versions, wrong kinds,
model or reward payloads and non-plain data are rejected loudly."""

import json

import numpy as np
import pytest

from repro.analysis.runner import get_solver
from repro.batch.planner import SolveRequest
from repro.batch.runner import BatchOutcome
from repro.batch.scenarios import Scenario, scenario_families
from repro.exceptions import ProtocolError
from repro.markov.rewards import Measure
from repro.service.protocol import (
    SCHEMA_VERSION,
    outcome_from_dict,
    outcome_to_dict,
    request_from_dict,
    request_to_dict,
    scenario_from_dict,
    scenario_to_dict,
    solution_from_dict,
    solution_to_dict,
)

#: One representative (tiny) scenario per registered family.
FAMILY_SCENARIOS = {
    "raid5": Scenario(name="p-raid", family="raid5",
                      params={"groups": 2, "spare_disks": 1,
                              "spare_controllers": 1,
                              "kind": "availability"},
                      times=(0.5, 2.0), eps=1e-8),
    "multiprocessor": Scenario(name="p-mp", family="multiprocessor",
                               params={"processors": 2, "memories": 2,
                                       "coverage": 0.99,
                                       "kind": "availability"},
                               times=(0.5, 2.0), eps=1e-8),
    "birth_death": Scenario(name="p-bd", family="birth_death",
                            params={"n": 6, "birth": 0.5, "death": 1.5},
                            times=(0.5, 2.0), eps=1e-8),
    "block": Scenario(name="p-block", family="block",
                      params={"n_blocks": 2, "block_size": 3,
                              "inter_scale": 1e-3, "seed": 5},
                      times=(0.5, 2.0), eps=1e-8),
}

METHODS = ("SR", "RSD", "RR", "RRL")


def _wire_trip(request):
    """Encode a request, force it through actual JSON text, decode."""
    return request_from_dict(json.loads(json.dumps(request_to_dict(request))))


def _solve(request: SolveRequest):
    """Solve a request from scratch (no worker cache involved)."""
    model, rewards = request.resolve()
    solver = get_solver(request.method, **dict(request.solver_kwargs))
    return solver.solve(model, rewards, request.measure,
                        list(request.times), request.eps)


class TestFamilyMethodMatrix:
    """The headline guarantee: every family × every method replays
    bit-identically from the wire."""

    def test_covers_every_registered_family(self):
        assert set(FAMILY_SCENARIOS) == set(scenario_families())

    @pytest.mark.parametrize("family", sorted(FAMILY_SCENARIOS))
    @pytest.mark.parametrize("method", METHODS)
    def test_request_round_trip_solves_bit_identically(self, family,
                                                       method):
        scenario = FAMILY_SCENARIOS[family]
        request = SolveRequest(scenario=scenario, measure=Measure.TRR,
                               times=scenario.times, eps=scenario.eps,
                               method=method, key=("rt", family, method))
        decoded = _wire_trip(request)
        assert decoded.key == request.key
        assert decoded.method == request.method
        assert decoded.times == request.times
        assert decoded.scenario == request.scenario

        original = _solve(request)
        replayed = _solve(decoded)
        assert np.array_equal(original.values, replayed.values)
        assert np.array_equal(original.steps, replayed.steps)
        assert np.array_equal(original.times, replayed.times)
        assert original.stats["rate"] == replayed.stats["rate"]


class TestScenarioCodec:
    @pytest.mark.parametrize("family", sorted(FAMILY_SCENARIOS))
    def test_scenario_round_trip_is_equal(self, family):
        scenario = FAMILY_SCENARIOS[family]
        decoded = scenario_from_dict(
            json.loads(json.dumps(scenario_to_dict(scenario))))
        assert decoded == scenario  # frozen dataclass: field-wise

    def test_mrr_measure_survives(self):
        s = FAMILY_SCENARIOS["birth_death"].with_measure(Measure.MRR)
        assert scenario_from_dict(scenario_to_dict(s)).measure is Measure.MRR


#: A scenario-request record as a journal of schema version 1 holds it
#: (compact, sorted keys), written by the release before ``"model"`` and
#: ``"rewards"`` became always null.
JOURNALED_REQUEST = (
    '{"eps":1e-08,"key":{"__tuple__":["bd","RRL",0.1]},'
    '"kind":"solve_request","measure":"mrr","method":"RRL","model":null,'
    '"rewards":null,"scenario":{"eps":1e-08,"family":"birth_death",'
    '"kind":"scenario","measure":"trr","name":"p-bd",'
    '"params":{"birth":0.5,"death":1.5,"n":6},"schema_version":1,'
    '"times":[0.5,2.0]},"schema_version":1,'
    '"solver_kwargs":{"regenerative":2},"times":[0.5,2.0]}')


class TestRequestCodec:
    def test_journaled_record_decodes_and_re_encodes_to_its_bytes(self):
        request = request_from_dict(json.loads(JOURNALED_REQUEST))
        assert request.scenario == FAMILY_SCENARIOS["birth_death"]
        assert request.key == ("bd", "RRL", 0.1)
        assert request.measure is Measure.MRR
        assert dict(request.solver_kwargs) == {"regenerative": 2}
        again = json.dumps(request_to_dict(request), separators=(",", ":"),
                           sort_keys=True)
        assert again == JOURNALED_REQUEST

    def test_model_backed_record_is_rejected(self):
        # A record in the layout an earlier release journaled for a
        # live-model request: the CSR and initial vector inline.
        record = json.loads(JOURNALED_REQUEST)
        record["scenario"] = None
        record["model"] = {
            "schema_version": 1, "kind": "ctmc", "n_states": 2,
            "indptr": [0, 2, 4], "indices": [0, 1, 0, 1],
            "data": [-1.0, 1.0, 2.0, -2.0], "initial": [1.0, 0.0],
            "labels": None}
        record["rewards"] = {"schema_version": 1, "kind": "rewards",
                             "rates": [0.0, 1.0]}
        with pytest.raises(ProtocolError, match="'model' payload"):
            request_from_dict(record)

    @pytest.mark.parametrize("name", ["model", "rewards"])
    def test_record_with_a_payload_is_rejected(self, name):
        # A scenario record that also carries a model or a reward
        # override: neither is decoded, so neither may be dropped.
        record = json.loads(JOURNALED_REQUEST)
        record[name] = {"schema_version": 1, "kind": name,
                        "rates": [0.0, 1.0, 0.0, 0.0, 1.0, 1.0]}
        with pytest.raises(ProtocolError, match=f"'{name}' payload"):
            request_from_dict(record)

    def test_solver_kwargs_survive(self):
        request = SolveRequest(scenario=FAMILY_SCENARIOS["birth_death"],
                               measure=Measure.TRR, times=(1.0,),
                               eps=1e-8, method="RRL",
                               solver_kwargs={"regenerative": 2})
        decoded = _wire_trip(request)
        assert dict(decoded.solver_kwargs) == {"regenerative": 2}
        assert np.array_equal(_solve(request).values,
                              _solve(decoded).values)


class TestSolutionAndOutcomeCodec:
    def _solution(self):
        request = SolveRequest(scenario=FAMILY_SCENARIOS["birth_death"],
                               measure=Measure.TRR, times=(0.5, 2.0),
                               eps=1e-8, method="RRL")
        return _solve(request)

    def test_solution_round_trip(self):
        sol = self._solution()
        decoded = solution_from_dict(
            json.loads(json.dumps(solution_to_dict(sol))))
        assert np.array_equal(decoded.values, sol.values)
        assert np.array_equal(decoded.steps, sol.steps)
        assert np.array_equal(decoded.times, sol.times)
        assert decoded.steps.dtype == np.int64
        assert decoded.measure is sol.measure
        assert decoded.method == sol.method
        assert decoded.stats["rate"] == sol.stats["rate"]
        # Diagnostic arrays/lists survive as lists.
        assert list(decoded.stats["n_abscissae"]) \
            == list(sol.stats["n_abscissae"])
        # So do RRL's achieved-error diagnostics, float for float.
        for key in ("truncation_bound", "inversion_diff"):
            assert len(sol.stats[key]) == len(sol.times)
            assert list(decoded.stats[key]) == list(sol.stats[key])

    def test_success_outcome_round_trip(self):
        out = BatchOutcome(key=("cell", 3), ok=True,
                           value=self._solution(),
                           duration=0.125, worker_pid=4242)
        decoded = outcome_from_dict(
            json.loads(json.dumps(outcome_to_dict(out))))
        assert decoded.key == ("cell", 3)  # tuple restored, not list
        assert decoded.ok
        assert np.array_equal(decoded.value.values, out.value.values)
        assert decoded.duration == 0.125
        assert decoded.worker_pid == 4242

    def test_failure_outcome_round_trip(self):
        out = BatchOutcome(key=("steps", "UA", 20, "SR"), ok=False,
                           error_type="TruncationError",
                           error="SR needs 9999 steps (> max_steps=10)",
                           traceback="Traceback (most recent call last):"
                                     "\n  ...\nTruncationError: boom",
                           duration=0.5)
        decoded = outcome_from_dict(
            json.loads(json.dumps(outcome_to_dict(out))))
        assert not decoded.ok
        assert decoded.value is None
        assert decoded.error_type == "TruncationError"
        assert decoded.error == out.error
        assert decoded.traceback == out.traceback
        assert decoded.key == out.key

    def test_plain_value_outcome_round_trip(self):
        # Timing/analytic columns produce lists (with None holes).
        out = BatchOutcome(key="timing", ok=True,
                           value=[0.25, None, 1.5])
        decoded = outcome_from_dict(
            json.loads(json.dumps(outcome_to_dict(out))))
        assert decoded.value == [0.25, None, 1.5]

    def test_live_exception_objects_are_rejected(self):
        out = BatchOutcome(key="bad", ok=False,
                           error_type=ValueError)  # type: ignore[arg-type]
        with pytest.raises(ProtocolError, match="live exception"):
            outcome_to_dict(out)


class TestValidation:
    def _request_dict(self):
        return request_to_dict(SolveRequest(
            scenario=FAMILY_SCENARIOS["birth_death"],
            measure=Measure.TRR, times=(1.0,), eps=1e-8, method="SR"))

    def test_schema_version_mismatch_rejected(self):
        d = self._request_dict()
        d["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ProtocolError, match="schema_version"):
            request_from_dict(d)

    def test_kind_mismatch_rejected(self):
        d = self._request_dict()
        with pytest.raises(ProtocolError, match="expected kind"):
            scenario_from_dict(d)

    def test_missing_field_rejected(self):
        d = self._request_dict()
        del d["times"]
        with pytest.raises(ProtocolError, match="missing field 'times'"):
            request_from_dict(d)

    def test_non_plain_key_rejected_at_encode_time(self):
        request = SolveRequest(scenario=FAMILY_SCENARIOS["birth_death"],
                               measure=Measure.TRR, times=(1.0,),
                               eps=1e-8, method="SR", key=object())
        with pytest.raises(ProtocolError, match="not wire-serializable"):
            request_to_dict(request)

    def test_json_text_round_trip(self):
        # The journal form: one compact JSON line per record.
        request = SolveRequest(scenario=FAMILY_SCENARIOS["block"],
                               measure=Measure.TRR, times=(1.0,),
                               eps=1e-8, method="RSD",
                               key=("a", ("b", 1), 2.5))
        line = json.dumps(request_to_dict(request), separators=(",", ":"))
        assert "\n" not in line
        decoded = request_from_dict(json.loads(line))
        assert decoded.key == ("a", ("b", 1), 2.5)
        assert decoded.scenario == request.scenario
