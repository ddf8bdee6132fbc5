"""FaultPlan schema validation, JSON round trips, injector target
checks, and the CLI's --faults / --chaos-report surface."""

import json

import pytest

import repro.api as api
from repro.cli import main
from repro.core.dataplane import Dataplane
from repro.core.faults import (
    FAULT_KINDS,
    FaultAction,
    FaultPlan,
    FaultPlanError,
)

pytestmark = pytest.mark.chaos


class TestActionValidation:
    def test_unknown_kind(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultAction(kind="meteor_strike", at_packet=0)

    def test_negative_at_packet(self):
        with pytest.raises(FaultPlanError, match="at_packet"):
            FaultAction(kind="link_loss", at_packet=-1)

    def test_oneshot_rejects_window(self):
        with pytest.raises(FaultPlanError, match="one-shot"):
            FaultAction(kind="nic_kill", at_packet=5, until_packet=10)

    def test_window_must_be_forward(self):
        with pytest.raises(FaultPlanError, match="until_packet"):
            FaultAction(kind="link_loss", at_packet=10, until_packet=10)

    def test_loss_rate_range(self):
        with pytest.raises(FaultPlanError, match="rate"):
            FaultAction(kind="link_loss", at_packet=0, rate=1.5)

    def test_loss_drop_kind(self):
        with pytest.raises(FaultPlanError, match="drop_kind"):
            FaultAction(kind="link_loss", at_packet=0, rate=0.1,
                        drop_kind="bursty")

    def test_negative_nic(self):
        with pytest.raises(FaultPlanError, match="nic"):
            FaultAction(kind="nic_kill", at_packet=0, nic=-1)

    def test_keep_fraction_range(self):
        with pytest.raises(FaultPlanError, match="keep_fraction"):
            FaultAction(kind="mgpv_squeeze", at_packet=0,
                        keep_fraction=2.0)

    def test_clamp_capacity_min(self):
        with pytest.raises(FaultPlanError, match="capacity"):
            FaultAction(kind="queue_clamp", at_packet=0, capacity=0)

    def test_every_kind_constructs(self):
        for kind in FAULT_KINDS:
            FaultAction(kind=kind, at_packet=0, rate=0.1,
                        keep_fraction=0.5)


class TestPlanValidation:
    def test_negative_seed(self):
        with pytest.raises(FaultPlanError, match="seed"):
            FaultPlan(seed=-1)

    def test_actions_must_be_fault_actions(self):
        with pytest.raises(FaultPlanError, match="FaultAction"):
            FaultPlan(actions=({"kind": "link_loss"},))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultPlanError, match="unknown keys"):
            FaultPlan.from_dict({"actions": [
                {"kind": "link_loss", "at_packet": 0, "severity": 9}]})

    def test_from_dict_rejects_non_list_actions(self):
        with pytest.raises(FaultPlanError, match="list"):
            FaultPlan.from_dict({"actions": {"kind": "link_loss"}})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(FaultPlanError, match="object"):
            FaultPlan.from_dict([1, 2, 3])

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(seed=7, actions=(
            FaultAction(kind="link_loss", at_packet=10, until_packet=50,
                        rate=0.2, drop_kind="sync"),
            FaultAction(kind="nic_kill", at_packet=100, nic=1),
            FaultAction(kind="mgpv_squeeze", at_packet=5,
                        until_packet=20, keep_fraction=0.25),
        ))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_json(str(path)) == plan

    def test_from_json_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(FaultPlanError, match="invalid JSON"):
            FaultPlan.from_json(str(path))


class TestInjectorTargets:
    def test_nic_kill_needs_cluster(self, flow_policy, enterprise_trace):
        plan = FaultPlan(actions=(
            FaultAction(kind="nic_kill", at_packet=0, nic=0),))
        fe = api.compile(flow_policy, fault_plan=plan)     # n_nics=1
        with pytest.raises(FaultPlanError, match="n_nics"):
            fe.run(enterprise_trace)

    def test_nic_index_bounds(self, flow_policy, enterprise_trace):
        plan = FaultPlan(actions=(
            FaultAction(kind="nic_kill", at_packet=0, nic=5),))
        fe = api.compile(flow_policy, n_nics=2, fault_plan=plan)
        with pytest.raises(FaultPlanError, match="cluster"):
            fe.run(enterprise_trace)

    def test_squeeze_needs_hardware_path(self, compiled_flow_policy):
        plan = FaultPlan(actions=(
            FaultAction(kind="mgpv_squeeze", at_packet=0,
                        keep_fraction=0.5),))
        with pytest.raises(FaultPlanError, match="MGPV"):
            Dataplane.build(compiled_flow_policy, software=True,
                            fault_plan=plan)


class TestCLI:
    def _plan_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 1, "actions": [
            {"kind": "link_loss", "at_packet": 0, "rate": 0.02,
             "drop_kind": "sync"}]}))
        return str(path)

    def test_extract_with_faults_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "features.csv")
        rc = main(["extract", "--app", "NPOD", "--trace", "ENTERPRISE",
                   "--flows", "50", "--out", out, "--nics", "2",
                   "--faults", self._plan_file(tmp_path),
                   "--chaos-report"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "chaos report" in captured.out
        assert "injected:" in captured.out

    def test_faults_rejected_on_software_path(self, tmp_path, capsys):
        rc = main(["extract", "--app", "NPOD", "--trace", "ENTERPRISE",
                   "--flows", "10", "--out", str(tmp_path / "f.csv"),
                   "--software", "--faults", self._plan_file(tmp_path)])
        assert rc == 2
        assert "hardware path" in capsys.readouterr().err

    def test_bad_plan_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc = main(["extract", "--app", "NPOD", "--trace", "ENTERPRISE",
                   "--flows", "10", "--out", str(tmp_path / "f.csv"),
                   "--faults", str(bad)])
        assert rc == 2
        assert "bad fault plan" in capsys.readouterr().err
