"""Gate synthesis, adder construction, testbench generation, logic twins."""

import os

import pytest

from cnfetsim import adders, logic, netlist, solver
from cnfetsim.adders import (
    AdderKind,
    GateFunction,
    GateSpec,
    GateSynthesisError,
    InputSchedule,
    build_adder,
    build_testbench,
    build_threshold_inverter_gate,
    gray_sequence,
    measure_switching_threshold,
    oracle_network,
    synthesize_gate_chiralities,
)
from cnfetsim.devices import Chirality, MosfetParams, chirality_threshold

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


class TestStats:
    @pytest.mark.parametrize(
        "kind,transistors,capacitors",
        [
            (AdderKind.PROPOSED, 14, 3),
            (AdderKind.CNT_FA1, 8, 7),
            (AdderKind.CNT_FA3, 8, 5),
            (AdderKind.C_CMOS, 28, 0),
            (AdderKind.TGA, 20, 0),
            (AdderKind.CNT_FA2, 10, 8),
        ],
    )
    def test_published_counts(self, kind, transistors, capacitors):
        s = netlist.stats(build_adder(kind))
        assert (s.transistor_count, s.capacitor_count) == (transistors, capacitors)

    def test_terminals_present(self):
        for kind in AdderKind:
            nodes = build_adder(kind).nodes
            for term in ("a", "b", "c", "sum", "cout", "vdd", "0"):
                assert term in nodes, (kind, term)


class TestGoldens:
    @pytest.mark.parametrize("kind", list(AdderKind))
    def test_emitted_netlists_match_goldens(self, kind):
        text = netlist.serialize(build_adder(kind))
        with open(os.path.join(GOLDEN_DIR, f"{kind.value}.cir"), encoding="utf-8") as fh:
            assert fh.read() == text

    @pytest.mark.parametrize("kind", list(AdderKind))
    def test_goldens_parse_back(self, kind):
        with open(os.path.join(GOLDEN_DIR, f"{kind.value}.cir"), encoding="utf-8") as fh:
            text = fh.read()
        c = netlist.parse(text)
        assert netlist.serialize(c) == text

    def test_shipped_proposed_netlist_counts(self):
        with open(os.path.join(GOLDEN_DIR, "proposed.cir"), encoding="utf-8") as fh:
            c = netlist.parse(fh.read())
        s = netlist.stats(c)
        assert (s.transistor_count, s.capacitor_count) == (14, 3)


class TestGateThresholds:
    BANDS = {
        GateFunction.MAJORITY_NOT: (1 / 3, 2 / 3),
        GateFunction.NAND3: (2 / 3, 1.0),
        GateFunction.NOR3: (0.0, 1 / 3),
        GateFunction.INVERTER: (1 / 3, 2 / 3),
    }

    @pytest.mark.parametrize("vdd", [0.9, 0.65])
    @pytest.mark.parametrize("function", list(GateFunction))
    def test_catalog_pairs_land_in_band_with_margin(self, function, vdd):
        n_chir, p_chir = adders.GATE_CHIRALITIES[function]
        vm = measure_switching_threshold(n_chir, p_chir, vdd)
        lo, hi = self.BANDS[function]
        margin = vdd / 30
        assert lo * vdd + margin <= vm <= hi * vdd - margin

    def test_majority_not_threshold_is_midpoint(self):
        n_chir, p_chir = adders.GATE_CHIRALITIES[GateFunction.MAJORITY_NOT]
        vm = measure_switching_threshold(n_chir, p_chir, 0.9)
        assert vm == pytest.approx(0.45, abs=2e-3)

    # repr of each catalog pair's threshold, as the self-biased solve
    # returns it.
    PINNED_THRESHOLDS = {
        ("majority_not", 0.9): "0.44999999561663634",
        ("majority_not", 0.65): "0.32499998825055754",
        ("nand3", 0.9): "0.6700461999505716",
        ("nand3", 0.65): "0.5450461479148122",
        ("nor3", 0.9): "0.22995378934577107",
        ("nor3", 0.65): "0.10495378052615097",
        ("inverter", 0.9): "0.44999999561663634",
        ("inverter", 0.65): "0.32499998825055754",
    }

    @pytest.mark.parametrize("function,vdd", list(PINNED_THRESHOLDS))
    def test_catalog_thresholds_are_pinned_bit_for_bit(self, function, vdd):
        n_chir, p_chir = adders.GATE_CHIRALITIES[GateFunction(function)]
        vm = measure_switching_threshold(n_chir, p_chir, vdd)
        assert repr(vm) == self.PINNED_THRESHOLDS[function, vdd]

    def test_one_compile_per_circuit_across_supplies(self, monkeypatch):
        # A pair's inverter and self-biased inverter are built once, at 0 V,
        # and each supply sets its levels on copies sharing their compile;
        # the result at a supply does not depend on what ran before.
        built = []
        init = solver._Compiled.__init__

        def counting(comp, circuit):
            built.append(circuit)
            init(comp, circuit)

        monkeypatch.setattr(solver._Compiled, "__init__", counting)
        n_chir, p_chir = adders.GATE_CHIRALITIES[GateFunction.NAND3]
        adders._threshold_circuits.cache_clear()
        first = measure_switching_threshold(n_chir, p_chir, 0.65)
        measure_switching_threshold(n_chir, p_chir, 0.9)
        assert len(built) == 2
        assert measure_switching_threshold(n_chir, p_chir, 0.65) == first
        assert len(built) == 2
        assert repr(first) == self.PINNED_THRESHOLDS["nand3", 0.65]

    @pytest.mark.parametrize("vdd", [0.65, 0.7, 0.77, 0.85, 0.9])
    def test_threshold_is_the_analytic_balance_point(self, vdd):
        # Equal-strength square-law devices with lambda = 0 balance at
        # (vdd + vtn - vtp) / 2; every catalog pair and every pair the
        # synthesis picks at this supply must be measured there.
        pairs = set(adders.GATE_CHIRALITIES.values())
        pairs.update(synthesize_gate_chiralities(f, vdd) for f in GateFunction)
        for n_chir, p_chir in pairs:
            want = adders.predicted_switching_threshold(
                vdd, chirality_threshold(n_chir), chirality_threshold(p_chir))
            vm = measure_switching_threshold(n_chir, p_chir, vdd)
            assert abs(vm - want) <= 1e-6 * vdd, (n_chir, p_chir)

    def test_inverter_that_does_not_swing_through_half_vdd_is_rejected(self):
        # The (4,0) P device's threshold, 1.32 V, is above the supply, so
        # it never turns on and the output stays low at vin = 0.
        assert chirality_threshold(Chirality(4, 0)) > 0.9
        with pytest.raises(GateSynthesisError, match="does not swing through vdd/2"):
            measure_switching_threshold(Chirality(19, 0), Chirality(4, 0), 0.9)

    def test_inverter_whose_n_device_never_turns_on_is_rejected(self):
        # The mirror: the (4,0) N device never turns on, so nothing pulls
        # the output low at vin = vdd.  Held by GMIN alone, it stays where
        # the check starts it, vdd/2, which is not below vdd/2.
        assert chirality_threshold(Chirality(4, 0)) > 0.9
        with pytest.raises(GateSynthesisError, match="does not swing through vdd/2"):
            measure_switching_threshold(Chirality(4, 0), Chirality(19, 0), 0.9)

    @pytest.mark.parametrize("vdd", [0.65, 0.9])
    def test_catalog_thresholds_take_few_linear_solves(self, monkeypatch, vdd):
        # The swing checks start the output at vdd/2 and the self-biased
        # solve at the predicted threshold, so no solve walks the output
        # up from 0 V through the update clamp: 9 linear solves per
        # threshold at 0.65 V and 11 at 0.9 V.
        calls = []
        lin_solve = solver._lin_solve
        monkeypatch.setattr(solver, "_lin_solve", lambda *a: calls.append(1) or lin_solve(*a))
        for function, (n_chir, p_chir) in adders.GATE_CHIRALITIES.items():
            before = len(calls)
            measure_switching_threshold(n_chir, p_chir, vdd)
            assert len(calls) - before <= 11, function

    @pytest.mark.parametrize("vdd", [0.9, 0.65])
    @pytest.mark.parametrize("function", list(GateFunction))
    def test_synthesis_search_returns_feasible_pair(self, function, vdd):
        cn, cp = synthesize_gate_chiralities(function, vdd)
        vm = measure_switching_threshold(cn, cp, vdd)
        lo, hi = self.BANDS[function]
        assert lo * vdd < vm < hi * vdd

    def test_synthesis_unreachable_band(self):
        # At a tiny supply no zigzag pair can satisfy the NAND band.
        with pytest.raises(GateSynthesisError):
            synthesize_gate_chiralities(GateFunction.NAND3, 0.15)

    def test_build_gate_verifies_transfer(self):
        gate = build_threshold_inverter_gate(GateSpec(GateFunction.MAJORITY_NOT, 0.9))
        s = netlist.stats(gate)
        assert (s.transistor_count, s.capacitor_count) == (2, 3)
        assert {"a", "b", "c", "x", "out", "vdd"} <= gate.nodes

    def test_build_gate_rejects_wrong_explicit_pair(self, monkeypatch):
        # A measured threshold outside the band fails the verify check,
        # whatever the predicted one said: 0.45 V is the majority-not
        # midpoint, below the NAND3 band (0.6, 0.9) V.
        monkeypatch.setattr(adders, "measure_switching_threshold", lambda n, p, vdd: 0.45)
        with pytest.raises(GateSynthesisError, match="outside nand3 band"):
            build_threshold_inverter_gate(GateSpec(GateFunction.NAND3, 0.9))
        build_threshold_inverter_gate(GateSpec(GateFunction.NAND3, 0.9), verify=False)

    def test_inverter_function_is_bare_pair(self):
        gate = build_threshold_inverter_gate(GateSpec(GateFunction.INVERTER, 0.9))
        s = netlist.stats(gate)
        assert (s.transistor_count, s.capacitor_count) == (2, 0)

    def test_verify_flag_does_not_pick_the_pair(self):
        # The catalog NOR3 pair (59,0)/(10,0) is predicted out of band at
        # 1.5 V, so both flag values build the synthesized (59,0)/(5,0).
        spec = GateSpec(GateFunction.NOR3, 1.5)
        checked = build_threshold_inverter_gate(spec, verify=True)
        unchecked = build_threshold_inverter_gate(spec, verify=False)
        assert netlist.serialize(unchecked) == netlist.serialize(checked)
        assert sorted(checked.models) == ["ncnt59_0", "pcnt5_0"]


class TestGateBehavior:
    """Transient checks of the constructed capacitive gates at 0.9 V."""

    VDD = 0.9

    def _settled_out(self, gate_circuit, bits):
        b = dict(zip("abc", bits))
        text = netlist.serialize(gate_circuit)
        text += f"vdd vdd 0 dc {self.VDD}\n"
        for name, bit in b.items():
            text += f"v{name} {name} 0 dc {bit * self.VDD}\n"
        c = netlist.parse(text)
        cfg = solver.SolverConfig(timestep=1e-12)
        init = solver.initialize_floating_nodes(c)
        res = solver.transient(c, cfg, 5e-11, initial_conditions=init)
        return float(res.voltage("out")[-1]), init["x"]

    def test_majority_not_two_high_pulls_low(self):
        gate = build_threshold_inverter_gate(GateSpec(GateFunction.MAJORITY_NOT, self.VDD))
        out, x = self._settled_out(gate, (1, 1, 0))
        assert x == pytest.approx(0.6, abs=0.01)
        assert out < 0.1 * self.VDD

    def test_nand3_all_high_only(self):
        gate = build_threshold_inverter_gate(GateSpec(GateFunction.NAND3, self.VDD))
        out_all, _ = self._settled_out(gate, (1, 1, 1))
        assert out_all < 0.1 * self.VDD
        for bits in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0)):
            out, _ = self._settled_out(gate, bits)
            assert out > 0.85 * self.VDD, bits

    def test_nor3_any_high_pulls_low(self):
        gate = build_threshold_inverter_gate(GateSpec(GateFunction.NOR3, self.VDD))
        out_zero, _ = self._settled_out(gate, (0, 0, 0))
        assert out_zero > 0.9 * self.VDD
        for bits in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)):
            out, _ = self._settled_out(gate, bits)
            assert out < 0.15 * self.VDD, bits

    def test_mvl_levels_on_majority_node(self):
        # The shared capacitive node must sit at {0, 1/3, 2/3, 1} * vdd.
        gate = build_threshold_inverter_gate(GateSpec(GateFunction.MAJORITY_NOT, self.VDD))
        for bits in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)):
            _, x = self._settled_out(gate, bits)
            assert x == pytest.approx(sum(bits) * self.VDD / 3, abs=0.05 * self.VDD)


class TestGraySchedule:
    def test_visits_all_eight(self):
        assert len(set(gray_sequence())) == 8

    def test_adjacent_differ_in_one_bit(self):
        seq = gray_sequence()
        for a, b in zip(seq, seq[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1
        # cyclic too
        assert sum(x != y for x, y in zip(seq[-1], seq[0])) == 1

    def test_total_time(self):
        sched = InputSchedule(10e-12, 200e-12, periods=1)
        assert sched.total_time == pytest.approx(16 * (10e-12 + 200e-12))

    def test_every_single_input_transition_exercised(self):
        sched = InputSchedule(1e-12, 1e-12, periods=1)
        seen = set()
        for _, before, after in sched.edges():
            for k in range(3):
                if before[k] != after[k]:
                    seen.add((k, before[k], after[k]))
        assert seen == {(k, a, 1 - a) for k in range(3) for a in (0, 1)}

    def test_pwl_points_strictly_increasing(self):
        sched = InputSchedule(10e-12, 200e-12, periods=2)
        for idx in range(3):
            pts = sched.pwl_points(idx, 0.9)
            times = [t for t, _ in pts]
            assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))


class TestTestbench:
    def test_structure(self):
        dut = build_adder(AdderKind.PROPOSED)
        tb = build_testbench(dut, 0.9, 10e-12, 200e-12)
        names = {el.name for el in tb.elements}
        assert {"vvdd", "va", "vb", "vc"} <= names
        s = netlist.stats(tb)
        # DUT transistors + 2 buffer inverters per output
        assert s.transistor_count == 14 + 8
        # DUT caps + three load caps per output
        assert s.capacitor_count == 3 + 6

    def test_buffers_match_dut_technology(self):
        tb_cnfet = build_testbench(build_adder(AdderKind.CNT_FA1), 0.9, 1e-12, 1e-11)
        kinds = {el.kind for el in tb_cnfet.elements if el.name.startswith("qnb1")}
        assert kinds == {netlist.ElementKind.CNFET}
        tb_mos = build_testbench(build_adder(AdderKind.TGA), 0.9, 1e-12, 1e-11)
        kinds = {el.kind for el in tb_mos.elements if el.name.startswith("mnb1")}
        assert kinds == {netlist.ElementKind.MOSFET}

    def test_missing_terminal_rejected(self):
        c = netlist.parse("r1 a 0 1k\n")
        with pytest.raises(ValueError):
            build_testbench(c, 0.9, 1e-12, 1e-11)

    @pytest.mark.parametrize("kind", [AdderKind.CNT_FA2, AdderKind.TGA])
    def test_device_record_sets_every_card(self, kind):
        dev = adders.DeviceParams(cnfet_tubes=5, cnfet_k_per_tube_a_per_v2=2e-4,
                                  mosfet_k_a_per_v2=8e-4, mosfet_vth_v=0.3,
                                  mosfet_lambda_per_v=0.1)
        tb = build_testbench(build_adder(kind, devices=dev), 0.9, 1e-12, 1e-11, devices=dev)
        default = build_testbench(build_adder(kind), 0.9, 1e-12, 1e-11)
        transistors = [(el, ref) for el, ref in zip(tb.elements, default.elements) if el.model]
        assert len(transistors) == netlist.stats(default).transistor_count
        for el, ref_el in transistors:
            p, ref = tb.models[el.model].params, default.models[ref_el.model].params
            if isinstance(p, MosfetParams):
                assert (p.transconductance, p.threshold, p.channel_length_modulation) == (
                    8e-4, 0.3, 0.1)
            else:
                assert p.tube_count == 5 * ref.tube_count // 3
                assert p.transconductance_per_tube == 2e-4


    @pytest.mark.parametrize("kind, dev, card", [
        (AdderKind.PROPOSED, adders.DeviceParams(cnfet_tubes=6), "ncnt19_0"),
        (AdderKind.TGA, adders.DeviceParams(mosfet_vth_v=0.3), "nmos"),
    ])
    def test_mismatched_dut_card_rejected(self, kind, dev, card):
        # The buffers would otherwise run silently on the DUT's card.
        with pytest.raises(ValueError, match=repr(card)):
            build_testbench(build_adder(kind), 0.9, 1e-11, 2e-10, devices=dev)
        build_testbench(build_adder(kind, devices=dev), 0.9, 1e-11, 2e-10, devices=dev)


class TestOracleTwins:
    @pytest.mark.parametrize("kind", list(AdderKind))
    def test_every_twin_matches_truth_table(self, kind):
        report = logic.verify_adder_network(oracle_network(kind))
        assert report.ok, report.to_json()

    def test_low_supply_feasibility_check(self):
        with pytest.raises(GateSynthesisError):
            build_adder(AdderKind.PROPOSED, vdd=0.4)

    def test_mosfet_designs_skip_cnfet_feasibility(self):
        # The reference MOSFET adders have no chirality-tuned gates.
        build_adder(AdderKind.C_CMOS, vdd=0.4)
