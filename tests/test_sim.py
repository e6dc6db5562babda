import dataclasses
import json

import numpy as np
import pytest

from dutysim import detect, sim
from dutysim.cli import main
from dutysim.detect import DetectorModel, gate, make_probe_fn, sample_detection, synthesize_tone
from dutysim.errors import ScheduleError
from dutysim.power import PowerProfile, charge_consumed, to_ticks, validate_log
from dutysim.qsched import ActionSpace, Hyperparameters, QTable
from dutysim.sim import (
    FixedSchedule,
    GreedySchedule,
    convergence_episodes,
    run_schedule,
    train_qlearn,
)
from dutysim.trace import (
    DiurnalProfile,
    Event,
    generate_trace,
    make_trace,
    save_trace,
)

import test_acceptance as acceptance
from _oracles import per_hour_oracle, stream_position, two_peak_trace

ORACLE = DetectorModel(tp_rate=1.0, fp_rate=0.0)
PROFILE = PowerProfile()


def _empty_day():
    return make_trace([], horizon=86400.0)


# -- run_schedule basics -----------------------------------------------------


def test_empty_trace_fixed_60():
    report, log = run_schedule(_empty_day(), FixedSchedule(60.0), ORACLE, PROFILE, 1)
    assert report.activations == 1440
    assert report.positives == 0
    assert report.negatives == 1440
    assert report.events_total == 0
    assert report.detection_rate == 1.0
    assert len(report.periods) == 24


def test_single_event_detected_by_fixed_3():
    tr = make_trace([Event(id=0, start=100.0, duration=3.0)], horizon=86400.0)
    report, log = run_schedule(tr, FixedSchedule(3.0), ORACLE, PROFILE, 1, collect_log=True)
    assert report.events_total == 1
    assert report.events_detected == 1
    assert report.positives == 1
    assert report.detection_rate == 1.0
    # The mic stays on from probe end to the event end.
    recs = [e for e in log if e.mode == "event_record"]
    assert len(recs) == 1
    assert recs[0].start == to_ticks(102.0 + PROFILE.d_probe)
    assert recs[0].start + recs[0].duration == to_ticks(103.0)


def test_event_missed_by_long_interval():
    tr = make_trace([Event(id=0, start=100.0, duration=3.0)], horizon=86400.0)
    report, _ = run_schedule(tr, FixedSchedule(1800.0), ORACLE, PROFILE, 1)
    assert report.events_detected == 0
    assert report.positives == 0


def test_interval_monotonicity_on_dense_trace():
    tr = two_peak_trace(1, 5)
    short, _ = run_schedule(tr, FixedSchedule(3.0), ORACLE, PROFILE, 1)
    long, _ = run_schedule(tr, FixedSchedule(1800.0), ORACLE, PROFILE, 1)
    assert short.events_detected >= long.events_detected
    assert long.activations <= short.activations


def test_fixed_3_oracle_detects_everything():
    # All durations are exactly 3 s, so a 3 s cadence cannot miss.
    tr = two_peak_trace(1, 7)
    report, _ = run_schedule(tr, FixedSchedule(3.0), ORACLE, PROFILE, 1)
    assert report.detection_rate == 1.0


def test_log_tiles_the_horizon_exactly():
    tr = two_peak_trace(1, 3)
    report, log = run_schedule(tr, FixedSchedule(5.0), ORACLE, PROFILE, 2, collect_log=True)
    validate_log(log, span=to_ticks(tr.horizon))
    assert log[0].start == 0


def test_log_on_partial_hours():
    tr = make_trace([Event(id=0, start=4000.0, duration=65.0)], horizon=5400.0)
    report, log = run_schedule(tr, FixedSchedule(60.0), ORACLE, PROFILE, 2, collect_log=True)
    validate_log(log, span=to_ticks(5400.0))
    assert len(report.periods) == 2
    assert report.events_detected == 1


def test_online_offline_charge_identical():
    tr = two_peak_trace(1, 9)
    report, log = run_schedule(tr, FixedSchedule(5.0), ORACLE, PROFILE, 3, collect_log=True)
    assert report.charge_mah == charge_consumed(log, PROFILE, span=to_ticks(tr.horizon))


def test_counts_add_up_per_period():
    tr = two_peak_trace(1, 11)
    detector = DetectorModel(tp_rate=0.7, fp_rate=0.05)
    report, _ = run_schedule(tr, FixedSchedule(5.0), detector, PROFILE, 4)
    for p in report.periods:
        assert p.activations == p.positives + p.negatives
    assert report.activations == report.positives + report.negatives
    assert report.events_detected >= report.positives  # chain hits add extra events


def test_false_positive_probes_count_negative():
    detector = DetectorModel(tp_rate=1.0, fp_rate=1.0)
    report, log = run_schedule(
        _empty_day(), FixedSchedule(1800.0), detector, PROFILE, 5, collect_log=True
    )
    assert report.positives == 0
    assert report.negatives == report.activations
    # Every false alarm still bills a clip recording and an audio upload.
    assert sum(1 for e in log if e.mode == "tx_audio") == report.activations
    recs = [e for e in log if e.mode == "event_record"]
    assert len(recs) == report.activations
    assert all(e.duration == to_ticks(PROFILE.false_alarm_record_s) for e in recs)


def test_camera_fires_every_third_detection():
    tr = two_peak_trace(1, 13)
    report, log = run_schedule(tr, FixedSchedule(3.0), ORACLE, PROFILE, 6, collect_log=True)
    cameras = sum(1 for e in log if e.mode == "camera")
    images = sum(1 for e in log if e.mode == "tx_image")
    audios = sum(1 for e in log if e.mode == "tx_audio")
    assert cameras == report.events_detected // 3
    assert images == cameras
    assert audios == report.events_detected


def test_chained_events_share_one_positive():
    tr = make_trace(
        [
            Event(id=0, start=100.0, duration=3.0),
            Event(id=1, start=102.5, duration=7.5),
        ],
        horizon=86400.0,
    )
    report, _ = run_schedule(tr, FixedSchedule(3.0), ORACLE, PROFILE, 1)
    assert report.events_detected == 2
    assert report.positives == 1


def test_event_starting_after_the_window_is_never_detected():
    # The wake at 5397 s hears event 0, whose recording would run past the
    # window's end at 5400 s, inside the last, partial period; event 1
    # starts after that end, so neither the recording nor the report may
    # count it.
    tr = make_trace(
        [
            Event(id=0, start=5397.05, duration=10.0),
            Event(id=1, start=5401.0, duration=10.0),
        ],
        horizon=86400.0,
    )
    report, _ = run_schedule(tr, FixedSchedule(3.0), ORACLE, PROFILE, 1, duration_s=5400.0)
    assert report.events_total == 1
    assert report.events_detected == 1


def test_probe_window_is_tenth_of_a_second():
    # An event starting 0.05 s into the window is caught; one starting
    # 0.15 s in is not (and has ended by the next wake).
    near = make_trace([Event(id=0, start=100.05, duration=0.9)], horizon=86400.0)
    far = make_trace([Event(id=0, start=100.15, duration=0.9)], horizon=86400.0)
    hit, _ = run_schedule(near, FixedSchedule(100.0), ORACLE, PROFILE, 1)
    miss, _ = run_schedule(far, FixedSchedule(100.0), ORACLE, PROFILE, 1)
    assert hit.events_detected == 1
    assert miss.events_detected == 0


def test_the_engine_probes_through_detect():
    # The engine binds the probe builder by name, and the benchmark's tracer
    # and test_engine_bulk wrap it under that name.
    assert sim.make_probe_fn is detect.make_probe_fn


def test_out_of_bank_event_is_its_own_tone(monkeypatch):
    # With a 100 Hz bandwidth no bank tone (2-8 kHz) lies near 1 kHz, so the
    # event sounds as a plain 1 kHz tone. Past Nyquist it adds nothing; so it
    # does at Nyquist, for a bank without the 8 kHz (Nyquist) bin.
    model = DetectorModel(kind="goertzel", tone_amplitude=300.0, event_bandwidth_hz=100.0)
    bank = model.bank
    nyquist = bank.sample_rate / 2
    vars(model)["bank"] = dataclasses.replace(bank, target_bins=bank.target_bins[:-1])
    assert bank.freq_of(bank.target_bins[-1]) == nyquist
    windows = []

    def recording_gate(bank, samples):
        windows.append(samples.copy())
        return gate(bank, samples)

    monkeypatch.setattr(detect, "gate", recording_gate)
    probe = make_probe_fn(model)
    tone = synthesize_tone(1000.0, model.tone_amplitude)
    assert probe([1000.0], None) == gate(model.bank, tone)
    assert probe([1000.0, nyquist, nyquist + 200.0, 3 * nyquist], None) == gate(model.bank, tone)
    assert probe([nyquist], None) == gate(model.bank, np.zeros(bank.window_len))
    assert np.array_equal(windows[0], tone)
    assert np.array_equal(windows[1], tone)
    assert not windows[2].any()


@pytest.mark.parametrize("tp_rate", [0.0, 1.0])
@pytest.mark.parametrize("fp_rate", [0.0, 1.0])
def test_sure_abstract_probes_answer_as_sample_detection_without_drawing(tp_rate, fp_rate):
    model = DetectorModel(tp_rate=tp_rate, fp_rate=fp_rate)
    probe = make_probe_fn(model)
    rng = sim._day_rng_provider(3, 0)(0)
    before = stream_position(rng)
    for bands in ([], [4000.0], [float("nan"), 500.0]):
        assert probe(bands, rng) is sample_detection(model, bool(bands), rng)
    assert stream_position(rng) == before


@pytest.mark.parametrize("tp_rate, fp_rate", [(0.5, 0.0), (1.0, 0.02), (0.3, 0.7)])
def test_uncertain_abstract_probe_draws_one_number(tp_rate, fp_rate):
    # Each probe whose rate lies strictly between 0 and 1 takes one number
    # from the stream and fires iff it is below the rate; a sure one takes none.
    probe = make_probe_fn(DetectorModel(tp_rate=tp_rate, fp_rate=fp_rate))
    rng, twin = (sim._day_rng_provider(3, 0)(0) for _ in range(2))
    for bands in ([], [4000.0], [], [4000.0, 5000.0]) * 3:
        rate = tp_rate if bands else fp_rate
        fired = probe(bands, rng)
        if 0.0 < rate < 1.0:
            assert fired is (twin.random() < rate)
        else:
            assert fired is (rate == 1.0)
        assert stream_position(rng) == stream_position(twin)


def test_positive_credited_to_probe_period():
    # Probe in hour 0 catches an event whose recording crosses into hour 1.
    tr = make_trace([Event(id=0, start=3596.0, duration=9.0)], horizon=86400.0)
    report, _ = run_schedule(tr, FixedSchedule(3.0), ORACLE, PROFILE, 1)
    assert report.periods[0].positives == 1
    assert report.periods[1].positives == 0
    assert report.periods[0].events_detected == 1


def test_rejects_interval_not_longer_than_probe():
    with pytest.raises(ScheduleError, match="probe"):
        run_schedule(_empty_day(), FixedSchedule(0.13), ORACLE, PROFILE, 1)
    with pytest.raises(ScheduleError, match="probe"):
        run_schedule(
            _empty_day(),
            GreedySchedule(table=QTable.zeros(24, 2), actions=ActionSpace(intervals=(0.1, 5.0))),
            ORACLE,
            PROFILE,
            1,
        )


def test_greedy_schedule_needs_24_states():
    with pytest.raises(ScheduleError, match="24"):
        run_schedule(
            _empty_day(),
            GreedySchedule(table=QTable.zeros(10, 5)),
            ORACLE,
            PROFILE,
            1,
        )


def test_unknown_schedule_spec_rejected():
    with pytest.raises(ScheduleError, match="unknown schedule spec"):
        run_schedule(_empty_day(), 60.0, ORACLE, PROFILE, 1)


def test_window_outside_horizon_rejected():
    with pytest.raises(ScheduleError, match="horizon"):
        run_schedule(_empty_day(), FixedSchedule(60.0), ORACLE, PROFILE, 1, duration_s=90000.0)


def test_run_is_deterministic():
    tr = two_peak_trace(1, 21)
    detector = DetectorModel(tp_rate=0.8, fp_rate=0.02)
    a, log_a = run_schedule(tr, FixedSchedule(5.0), detector, PROFILE, 9, collect_log=True)
    b, log_b = run_schedule(tr, FixedSchedule(5.0), detector, PROFILE, 9, collect_log=True)
    assert a == b
    assert log_a == log_b


def test_seed_changes_detection_draws():
    tr = two_peak_trace(1, 21)
    detector = DetectorModel(tp_rate=0.5, fp_rate=0.0)
    a, _ = run_schedule(tr, FixedSchedule(60.0), detector, PROFILE, 1)
    b, _ = run_schedule(tr, FixedSchedule(60.0), detector, PROFILE, 2)
    assert a.events_detected != b.events_detected


# -- training ----------------------------------------------------------------


def _peak_trace(days, seed):
    rates = tuple(30.0 if h in (5, 6, 7) else 0.0 for h in range(24))
    profile = DiurnalProfile(hourly_rate=rates, duration_mean=3.0, duration_sd=0.0, days=days)
    return generate_trace(profile, seed)


def test_trained_policy_specializes_by_hour():
    tr = _peak_trace(51, 31)
    hp = Hyperparameters(w1=0.02)
    result = train_qlearn(tr, 50, hp, ActionSpace(), ORACLE, PROFILE, 31)
    policy = result.table.greedy_policy()
    for hour in (5, 6, 7):
        assert policy[hour] == 0, f"hour {hour} picked action {policy[hour]}"
    for hour in (0, 1, 2, 3, 11, 12, 13, 20, 21, 22, 23):
        assert policy[hour] == 4, f"hour {hour} picked action {policy[hour]}"


def test_huge_w1_prefers_longest_interval():
    # Enough episodes that epsilon exploration re-samples every action a few
    # times; with alpha=0.1 a single optimistic visit can otherwise pin an
    # under-estimated Q above the converged value of the best action.
    rates = (0.5,) * 24
    profile = DiurnalProfile(hourly_rate=rates, duration_mean=3.0, duration_sd=0.0, days=41)
    tr = generate_trace(profile, 17)
    hp = Hyperparameters(gamma=0.0, w1=1000.0)
    result = train_qlearn(tr, 40, hp, ActionSpace(), ORACLE, PROFILE, 17)
    assert np.all(result.table.greedy_policy() == 4)


def test_training_is_deterministic():
    tr = two_peak_trace(6, 41)
    hp = Hyperparameters(w1=0.02)
    a = train_qlearn(tr, 4, hp, ActionSpace(), ORACLE, PROFILE, 41)
    b = train_qlearn(tr, 4, hp, ActionSpace(), ORACLE, PROFILE, 41)
    assert np.array_equal(a.table.values, b.table.values)
    assert np.array_equal(a.table.visits, b.table.visits)
    assert a.train_report == b.train_report
    held_out = {"t_begin": 4 * 86400.0, "duration_s": 2 * 86400.0}
    assert run_schedule(tr, GreedySchedule(a.table), ORACLE, PROFILE, 41, **held_out) == (
        run_schedule(tr, GreedySchedule(b.table), ORACLE, PROFILE, 41, **held_out)
    )
    assert len(a.policy_history) == 4
    assert all(np.array_equal(x, y) for x, y in zip(a.policy_history, b.policy_history))
    assert a.eps_final == b.eps_final


def test_training_logs_and_billing():
    tr = two_peak_trace(3, 43)
    hp = Hyperparameters(w1=0.02)
    result = train_qlearn(tr, 2, hp, ActionSpace(), ORACLE, PROFILE, 43, collect_log=True)
    eval_report, eval_log = run_schedule(
        tr, GreedySchedule(result.table), ORACLE, PROFILE, 43,
        collect_log=True, t_begin=2 * 86400.0, duration_s=86400.0,
    )
    train_log = result.train_log
    validate_log(train_log, span=to_ticks(2 * 86400.0))
    assert sum(1 for e in train_log if e.mode == "ql_infer") == 48
    # The last period's update lands on the horizon instant, and the log
    # tiles [0, span] exactly, so 48 periods bill 47 in-window updates.
    assert sum(1 for e in train_log if e.mode == "ql_update") == 47
    validate_log(eval_log, span=to_ticks(86400.0))
    assert eval_log[0].start == to_ticks(2 * 86400.0)
    # Greedy evaluation bills inference but never updates.
    assert sum(1 for e in eval_log if e.mode == "ql_infer") == 24
    assert sum(1 for e in eval_log if e.mode == "ql_update") == 0
    # Online totals match the exported logs exactly.
    train_span, eval_span = to_ticks(2 * 86400.0), to_ticks(86400.0)
    assert result.train_report.charge_mah == charge_consumed(train_log, PROFILE, span=train_span)
    assert eval_report.charge_mah == charge_consumed(eval_log, PROFILE, span=eval_span)


def test_epsilon_decays_per_episode():
    tr = two_peak_trace(6, 47)
    hp = Hyperparameters(w1=0.02)
    result = train_qlearn(tr, 5, hp, ActionSpace(), ORACLE, PROFILE, 47)
    assert result.eps_final == pytest.approx(0.3 * 0.99**5)


def test_train_rejects_short_horizon():
    tr = two_peak_trace(2, 51)
    with pytest.raises(ScheduleError, match="horizon"):
        train_qlearn(tr, 3, Hyperparameters(), ActionSpace(), ORACLE, PROFILE, 1)
    with pytest.raises(ScheduleError, match="train_days"):
        train_qlearn(tr, 0, Hyperparameters(), ActionSpace(), ORACLE, PROFILE, 1)


def test_train_with_init_table():
    tr = two_peak_trace(3, 55)
    init = QTable.zeros(24, 5)
    init.values[:, 0] = 5.0
    result = train_qlearn(
        tr, 2, Hyperparameters(w1=0.02), ActionSpace(), ORACLE, PROFILE, 3, init_table=init
    )
    # The input table is copied, not mutated.
    assert np.all(init.values[:, 0] == 5.0)
    assert np.all(init.visits == 0)
    assert result.table.visits.sum() == 48


def test_train_rejects_mismatched_init_table():
    tr = two_peak_trace(2, 57)
    with pytest.raises(ScheduleError, match="init_table"):
        train_qlearn(
            tr,
            1,
            Hyperparameters(),
            ActionSpace(),
            ORACLE,
            PROFILE,
            1,
            init_table=QTable.zeros(24, 3),
        )


def test_learned_policies_stay_near_the_per_hour_oracle():
    # Criterion 4's ten 60-day seeds. Each converged policy misses the
    # oracle in 1-4 hours at the edges of the peaks, losing 1.16-10.72
    # reward a day (worst at seed 0) out of an optimum of 102.5-111.6, from
    # early lock-in under epsilon_min. The bound guards against regression
    # and is not a target.
    hp, detector, profile = acceptance.HP, acceptance.ORACLE, acceptance.PROFILE
    actions = ActionSpace()
    for seed in range(10):
        trace = two_peak_trace(60, seed)
        result = train_qlearn(trace, 60, hp, actions, detector, profile, seed)
        r = per_hour_oracle(trace, 60, actions, detector, profile, seed, hp.w1)
        policy = result.table.greedy_policy()
        regret = float(np.sum(r.max(axis=1) - r[np.arange(24), policy]))
        assert regret <= 11.0, f"seed {seed}: regret {regret:.2f}/day, policy {policy}"


# -- convergence -------------------------------------------------------------


def _policies(*rows):
    return [np.array(r) for r in rows]


def test_convergence_empty_history():
    assert convergence_episodes([]) is None


def test_convergence_constant_policy():
    assert convergence_episodes(_policies([1, 2], [1, 2], [1, 2])) == 0
    assert convergence_episodes(_policies([1, 2])) == 0


def test_convergence_changes_at_3_and_12():
    history = _policies(*([[0, 0]] * 3 + [[1, 0]] * 9 + [[1, 1]] * 4))
    assert convergence_episodes(history) == 12


def test_convergence_unstable_returns_none():
    history = _policies([0], [1], [0], [1])
    assert convergence_episodes(history) is None


# -- comparison --------------------------------------------------------------


def _cli_comparison(tmp_path, trace, fixed, seed):
    """The comparison rows ``dutysim run`` writes to summary.json for ``trace``."""
    save_trace(trace, tmp_path / "trace.csv")
    cfg = {"seed": seed, "trace": {"file": "trace.csv"}, "schedules": {"fixed": fixed, "qlearn": None}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    return json.loads((out / "summary.json").read_text())["comparison"]


def test_compare_single_spec_matches_run(tmp_path, capsys):
    tr = two_peak_trace(1, 63)
    rows = _cli_comparison(tmp_path, tr, [60], 7)
    report, _ = run_schedule(tr, FixedSchedule(60.0), ORACLE, PROFILE, 7)
    assert rows == [
        {
            "name": "fixed_60",
            "detection_rate": report.detection_rate,
            "activations": report.activations,
            "positives": report.positives,
            "negatives": report.negatives,
            "avg_current_ma": report.avg_current_ma,
            "lifetime_years": report.lifetime_years,
        }
    ]


def test_compare_identical_specs_identical_rows(tmp_path, capsys):
    tr = two_peak_trace(1, 65)
    rows = _cli_comparison(tmp_path, tr, [5, 5], 8)
    assert rows[0] == rows[1]
