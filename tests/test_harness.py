"""End-to-end harness behavior: trials, configs, summaries, comparisons."""

import configparser
import math
from pathlib import Path

import numpy as np
import pytest

from dropfed import aggregation, harness
from dropfed.availability import periodic_schedule
from dropfed.config import ExperimentConfig, load_config
from dropfed.data import make_synthetic_classification
from dropfed.diagnostics import evaluate
from dropfed.errors import ConfigError
from dropfed.harness import (
    build_rates,
    build_schedule,
    build_task,
    initial_model,
    resolve_outdir,
    run_experiment,
    run_trial,
    run_trials,
    seed_task,
)
from dropfed.local_trainer import LocalConfig, draw_batches, local_train
from dropfed.objectives import (
    ClientDataset,
    Objective,
    QuadraticObjective,
    global_optimum,
    make_objective,
)
from dropfed.rng import DATA, seed_for
from dropfed.schedules import constant_rates, inverse_time_rates
from dropfed.summary import ComparisonRow, compare_runs, render_summary


def point_clients(means):
    out = []
    for i, m in enumerate(means):
        m = np.atleast_1d(np.asarray(m, dtype=np.float64))
        out.append(QuadraticObjective(ClientDataset(m[None, :], np.array([0]), client_id=i)))
    return out


K1 = LocalConfig(steps=1, lr=0.1, batch_size=1)


# ---------------------------------------------------------------------------
# run_trial against closed-form descent


def test_full_participation_contracts_like_gradient_descent():
    # All clients active, K = 1, full batch: w - w* shrinks by (1 - eta)
    # each round, exactly.
    objs = point_clients([[1.0, 0.0], [3.0, 2.0], [-1.0, 4.0], [5.0, -2.0]])
    w_star = global_optimum(objs)
    T, eta = 12, 0.5
    sched = periodic_schedule([1, 1, 1, 1], T)
    rates = constant_rates(eta, T)
    w0 = np.array([5.0, -3.0])
    trial = run_trial(objs, sched, rates, "fedavg", K1, w0, master_seed=1)
    want = (1 - eta) ** T * np.linalg.norm(w0 - w_star)
    assert trial.optimum_distance == pytest.approx(want, rel=1e-10)
    assert not trial.failed
    assert len(trial.rows) == T
    # Row t describes the model before that round's update.
    assert trial.rows[0].loss == pytest.approx(
        float(np.mean([o.loss(w0) for o in objs]))
    )
    losses = [r.loss for r in trial.rows]
    assert all(b < a for a, b in zip(losses, losses[1:]))
    # Full participation: no selection bias, tiny expectation error.
    assert all(r.gamma_t == 0.0 for r in trial.rows)
    assert all(r.E_t < 1e-20 for r in trial.rows)
    assert all(r.eta_t == eta for r in trial.rows)
    assert [r.uploads for r in trial.rows] == [4 * (t + 1) for t in range(T)]
    assert trial.uploads_total == 4 * T
    assert trial.max_staleness == 1
    assert math.isnan(trial.rows[0].acc)
    assert trial.initial_gap == pytest.approx(
        float(np.mean([o.loss(w0) for o in objs]))
        - float(np.mean([o.loss(w_star) for o in objs]))
    )


def test_trial_rejects_mismatched_rates():
    objs = point_clients([[0.0], [1.0]])
    sched = periodic_schedule([1, 1], 5)
    with pytest.raises(ConfigError):
        run_trial(objs, sched, constant_rates(0.1, 4), "fedavg", K1, np.zeros(1), 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trial_flags_divergence():
    objs = point_clients([[0.0], [2.0]])
    T = 60
    sched = periodic_schedule([1, 1], T)
    trial = run_trial(objs, sched, constant_rates(1e8, T), "fedavg", K1,
                      np.array([0.0]), 1)
    assert trial.failed
    assert 0 <= trial.failure_round < T
    assert len(trial.rows) == trial.failure_round + 1
    assert math.isnan(trial.final_loss)
    assert not np.all(np.isfinite(trial.final_w))
    # Executed rounds still report their rate mass.
    assert trial.rate_mass == pytest.approx(1e8 * len(trial.rows))


def test_e_t_equals_gamma_t_for_plain_averaging():
    # Partial participation, K = 1, full batch: the expected update is the
    # participants' mean gradient, so E_t and gamma_t coincide row by row.
    objs = point_clients([[0.0], [2.0], [4.0], [6.0]])
    T = 8
    sched = periodic_schedule([1, 2, 3, 4], T)
    rates = constant_rates(0.1, T)
    trial = run_trial(objs, sched, rates, "fedavg", K1, np.array([0.5]), 3)
    for row in trial.rows:
        assert row.E_t == pytest.approx(row.gamma_t, abs=1e-12)
    # Uneven periods produce genuinely positive selection bias somewhere.
    assert max(r.gamma_t for r in trial.rows) > 0


def test_expected_modes_agree_when_batches_are_full():
    # With batch_size covering every client dataset, replays draw nothing,
    # so the Monte Carlo expectation equals the full-batch one.
    rng = np.random.default_rng(5)
    objs = [
        QuadraticObjective(ClientDataset(rng.normal(size=(4, 2)) + i, np.zeros(4, dtype=int)))
        for i in range(3)
    ]
    cfg = LocalConfig(steps=2, lr=0.05, batch_size=4)
    T = 6
    sched = periodic_schedule([1, 2, 3], T)
    rates = constant_rates(0.2, T)
    full = run_trial(objs, sched, rates, "fedavg", cfg, np.zeros(2), 7,
                     expected_mode="fullbatch")
    mc = run_trial(objs, sched, rates, "fedavg", cfg, np.zeros(2), 7,
                   expected_mode="mc", expected_replays=8)
    for a, b in zip(full.rows, mc.rows):
        assert a.E_t == pytest.approx(b.E_t, abs=1e-15)
        assert a.loss == b.loss


def test_phi_hat_gating():
    rng = np.random.default_rng(9)
    objs = [
        QuadraticObjective(ClientDataset(rng.normal(size=(6, 1)), np.zeros(6, dtype=int)))
        for _ in range(3)
    ]
    cfg = LocalConfig(steps=1, lr=0.1, batch_size=2)  # real batch noise
    T = 7
    sched = periodic_schedule([1, 1, 1], T)
    rates = constant_rates(0.1, T)
    trial = run_trial(objs, sched, rates, "fedavg", cfg, np.zeros(1), 11,
                      phi_replays=6, phi_every=3)
    for row in trial.rows:
        if row.t % 3 == 0:
            assert not math.isnan(row.phi_hat)
            assert row.phi_hat > 0
        else:
            assert math.isnan(row.phi_hat)
    off = run_trial(objs, sched, rates, "fedavg", cfg, np.zeros(1), 11)
    assert all(math.isnan(r.phi_hat) for r in off.rows)


def test_trial_attaches_conditions_audit():
    objs = point_clients([[0.0], [2.0]])
    T = 10
    sched = periodic_schedule([1, 2], T)
    sizes = sched.sizes()
    rates = inverse_time_rates(0.05, 10.0, sizes, 2)
    trial = run_trial(objs, sched, rates, "fedavg", K1, np.zeros(1), 1)
    assert trial.conditions is not None
    np.testing.assert_allclose(
        trial.conditions.rho,
        rates.values[:-1] * sizes[1:] / (rates.values[1:] * sizes[:-1]),
    )
    single = run_trial(objs, periodic_schedule([1, 1], 1), constant_rates(0.1, 1),
                       "fedavg", K1, np.zeros(1), 1)
    assert single.conditions is None


# ---------------------------------------------------------------------------
# ExperimentConfig and config files


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(task="linear")
    with pytest.raises(ConfigError):
        ExperimentConfig(algorithm="adam")
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="lunar")
    with pytest.raises(ConfigError):
        ExperimentConfig(rate_kind="cosine")
    with pytest.raises(ConfigError):
        ExperimentConfig(expected_mode="exact")
    with pytest.raises(ConfigError):
        ExperimentConfig(init="ones")
    with pytest.raises(ConfigError):
        ExperimentConfig(scaffold_anchor="fresh")
    with pytest.raises(ConfigError):
        ExperimentConfig(algorithm="fedprox")  # needs prox_mu > 0
    with pytest.raises(ConfigError):
        ExperimentConfig(algorithm="fedavg", prox_mu=0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(iterations=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(seeds=())
    with pytest.raises(ConfigError):
        ExperimentConfig(seeds=(1, 1))
    with pytest.raises(ConfigError):
        ExperimentConfig(workers=0)
    ExperimentConfig(algorithm="fedprox", prox_mu=0.1)  # valid pairing


def test_schedule_rules_bind_only_the_configured_kinds():
    # Keys that belong to another rate kind or scenario are not checked.
    ExperimentConfig(rate_kind="inverse_time", eta0=0.0, decay=1.5)
    ExperimentConfig(rate_kind="exponential", scale=0.0, beta=-1.0)
    ExperimentConfig(scenario="static", tau_max=0, ratio=0.0)
    ExperimentConfig(scenario="round_robin", prob=0.0, ratio=2.0)


def test_fingerprint_tracks_task_not_algorithm():
    base = ExperimentConfig()
    assert base.fingerprint() == ExperimentConfig().fingerprint()
    assert ExperimentConfig(algorithm="mimic").fingerprint() == base.fingerprint()
    assert ExperimentConfig(eta0=0.9).fingerprint() == base.fingerprint()
    assert ExperimentConfig(iterations=7).fingerprint() == base.fingerprint()
    assert ExperimentConfig(separation=1.0).fingerprint() != base.fingerprint()
    assert ExperimentConfig(seeds=(2,)).fingerprint() != base.fingerprint()
    assert ExperimentConfig(prob=0.9).fingerprint() != base.fingerprint()


CONFIG_TEXT = """\
[task]
kind = quadratic
classes = 2
per_class = 10
dim = 2
separation = 3.0

[partition]
clients = 4
shards_per_client = 1

[federation]
algorithm = mimic
iterations = 12
local_steps = 2
local_lr = 0.05
batch_size = 5

[availability]
scenario = static
prob = 0.6
force_full_start = true

[rates]
kind = inverse_time
scale = 0.2
beta = 8.0

[run]
seeds = 1, 2
out = runs/demo
"""


def test_load_config_happy_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    cfg = load_config(path)
    assert cfg.task == "quadratic"
    assert cfg.per_class == 10
    assert cfg.algorithm == "mimic"
    assert cfg.local_steps == 2
    assert cfg.batch_size == 5
    assert cfg.scenario == "static"
    assert cfg.prob == 0.6
    assert cfg.force_full_start is True
    assert cfg.rate_kind == "inverse_time"
    assert cfg.scale == 0.2
    assert cfg.beta == 8.0
    assert cfg.seeds == (1, 2)
    assert cfg.out == "runs/demo"
    # Unspecified keys keep their defaults.
    assert cfg.nu == 0.01
    assert cfg.workers == 1


def test_load_config_seed_formats_and_booleans(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[run]\nseeds = 3 5 8\n")
    assert load_config(path).seeds == (3, 5, 8)
    path.write_text("[availability]\nforce_full_start = off\n")
    assert load_config(path).force_full_start is False
    path.write_text("[availability]\nforce_full_start = YES\n")
    assert load_config(path).force_full_start is True
    # Only configparser's booleans: a misspelt true is no silent false.
    path.write_text("[availability]\nforce_full_start = ture\n")
    with pytest.raises(ConfigError, match="bad value for availability.force_full_start: 'ture'"):
        load_config(path)


def test_load_config_rejects_unknowns(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[optimizer]\nlr = 0.1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(path)
    path.write_text("[task]\nflavor = spicy\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    path.write_text("[task]\nclasses = two\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)
    path.write_text("[federation]\nalgorithm = sgd\n")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.ini")


def test_load_config_inline_comments(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[federation]\niterations = 5 ; short smoke run\n")
    assert load_config(path).iterations == 5


# ---------------------------------------------------------------------------
# builders


def test_build_task_shapes_and_determinism():
    cfg = ExperimentConfig(task="logistic", classes=2, per_class=10, clients=4,
                           test_per_class=6)
    population, test_data = build_task(cfg, seed=1)
    assert population.kind == "logistic"
    assert population.num_clients == 4 and population.n == 5
    assert population.features.shape == (4, 5, 2)
    assert test_data.n == 12
    again, _ = build_task(cfg, seed=1)
    np.testing.assert_array_equal(population.features, again.features)
    # Test pool differs from the training pool (different stream index).
    train_pool = make_synthetic_classification(2, 6, 2, 4.0, seed_for(1, DATA, 0))
    assert not np.array_equal(test_data.features[:6], train_pool.features[:6])
    quad_cfg = ExperimentConfig(test_per_class=6)
    _, no_test = build_task(quad_cfg, seed=1)
    assert no_test is None


@pytest.mark.parametrize("task", ["logistic", "mlp"])
def test_accuracy_is_measured_on_the_test_set(task):
    # The training population predicts the test pool exactly as an
    # objective built on that pool would.
    cfg = ExperimentConfig(task=task, classes=3, per_class=10, clients=3, test_per_class=7,
                           iterations=4, init="normal")
    population, test_data = build_task(cfg, seed=2)
    sched = build_schedule(cfg, seed=2)
    w0 = initial_model(cfg, population.dim, seed=2)
    trial = run_trial(population, sched, build_rates(cfg, sched), "fedavg", K1, w0, 2,
                      test_data=test_data)
    reference = make_objective(task, test_data, **population.params)
    assert trial.rows[0].acc == evaluate(reference, w0[None])[0]
    assert trial.final_acc == evaluate(reference, trial.final_w[None])[0]
    assert not math.isnan(trial.final_acc)


@pytest.mark.parametrize("task", ["logistic", "quadratic"])
def test_every_reported_number_comes_from_one_population_pass(task, monkeypatch):
    # Each round takes one losses_and_grads pass over every seed's model,
    # and the final models take one more; a quadratic seed adds one loss at
    # its optimum.  The final fields equal the seed's own objective's loss,
    # gradient and evaluation, bit for bit.
    cfg = ExperimentConfig(task=task, classes=2, per_class=10, clients=4, test_per_class=6,
                           iterations=5, scenario="round_robin", tau_max=3, init="normal")
    tasks = [seed_task(cfg, seed) for seed in (3, 4)]
    calls = []
    original = Objective.losses_and_grads

    def counted(self, w):
        calls.append(w)
        return original(self, w)

    def refuse(self, w):
        raise AssertionError("measured outside the population pass")

    with monkeypatch.context() as patch:
        patch.setattr(Objective, "losses_and_grads", counted)
        patch.setattr(Objective, "client_grads", refuse)
        trials = run_trials(tasks, "fedavg", K1)
    assert len(calls) == cfg.iterations + 1 + (len(tasks) if task == "quadratic" else 0)
    for one, trial in zip(tasks, trials):
        population, w = one.population, trial.final_w
        assert not trial.failed
        g = population.grad(w)
        assert trial.final_loss == population.loss(w)
        assert trial.final_grad_norm2 == float(g @ g)
        acc = None
        if one.test_data is not None:
            acc = evaluate(make_objective(task, one.test_data, **population.params), w[None])[0]
        if acc is None:
            assert task == "quadratic" and math.isnan(trial.final_acc)
        else:
            assert trial.final_acc == acc


def test_a_measured_round_trains_in_one_pass(monkeypatch):
    # The run draws the batches of all its rounds in one call: each round's
    # participants, then as many replicas as the larger of the Monte Carlo
    # expectation and the phi samples needs.  Each round is one play_round
    # call, which trains its rows with one local_train call per row block.
    # In fullbatch mode the expectation is one more group of full-range
    # batches, trained in blocks of its own.  Seed 2 has no participant at
    # round 6.
    cfg = ExperimentConfig(task="mlp", classes=3, per_class=12, dim=3, hidden=4, clients=4,
                           iterations=8, local_steps=3, local_lr=0.05, batch_size=3,
                           algorithm="mimic", seeds=(1, 2))
    tasks = [seed_task(cfg, seed) for seed in cfg.seeds]
    drawn, full, trained, played = [], [], [], []

    def draw(n, clients, batch_size, sources, count):
        (full if sources is None else drawn).append(len(clients))
        return draw_batches(n, clients, batch_size, sources, count)

    def train(objective, start, batches, *args):
        trained.append((len(start), batches.shape[-1]))
        return local_train(objective, start, batches, *args)

    def play(state, *args, **kwargs):
        played.append(state.round_index)
        return aggregation.play_round(state, *args, **kwargs)

    monkeypatch.setattr(aggregation, "ROW_BLOCK_BYTES", 8 * tasks[0].population.dim * 5)
    monkeypatch.setattr(harness, "draw_batches", draw)
    monkeypatch.setattr(aggregation, "draw_batches", None)  # no round draws its own
    monkeypatch.setattr(aggregation, "local_train", train)
    monkeypatch.setattr(harness, "play_round", play)
    run_trials(tasks, cfg.algorithm, cfg.local_config(), phi_replays=4, phi_every=2,
               expected_mode="mc", expected_replays=2)
    masks = np.stack([task.schedule.mask for task in tasks])
    assert masks[0, 6].any() and not masks[1, 6].any()
    active = masks.sum(axis=(0, 2)).tolist()
    rows = [a * (1 + (4 if t % 2 == 0 else 2)) for t, a in enumerate(active)]
    assert drawn == [sum(rows)] and full == [] and played == list(range(cfg.iterations))
    assert trained == [(min(5, r - a), 3) for r in rows for a in range(0, r, 5)]
    for log in (drawn, trained, played):
        log.clear()
    run_trials(tasks, cfg.algorithm, cfg.local_config(), phi_replays=4, phi_every=2)
    rows = [a * (1 + (4 if t % 2 == 0 else 0)) for t, a in enumerate(active)]
    assert drawn == [sum(rows)] and full == active and played == list(range(cfg.iterations))
    n = tasks[0].population.n
    assert trained == [(min(5, size - a), b) for r, f in zip(rows, active)
                       for size, b in ((r, 3), (f, n)) for a in range(0, size, 5)]
    # A budget of the largest round's rows: each call draws whole rounds,
    # as many as fit.  A row takes 3 steps of 2 * 3 - 1 bounded draws.
    rows = [a * (1 + (4 if t % 2 == 0 else 2)) for t, a in enumerate(active)]
    monkeypatch.setattr(harness, "DRAW_CHUNK_BYTES", max(rows) * 8 * 3 * 5)
    drawn.clear()
    run_trials(tasks, cfg.algorithm, cfg.local_config(), phi_replays=4, phi_every=2,
               expected_mode="mc", expected_replays=2)
    chunks = [0]
    for r in rows:
        if chunks[-1] + r > max(rows):
            chunks.append(0)
        chunks[-1] += r
    assert drawn == chunks and len(chunks) > 1


def test_build_schedule_dispatch():
    for scenario, kind in [("round_robin", "round_robin"), ("static", "static"),
                           ("weighted", "weighted")]:
        cfg = ExperimentConfig(scenario=scenario, iterations=10, clients=5)
        sched = build_schedule(cfg, seed=2)
        assert sched.kind == kind
        assert sched.iterations == 10
        assert sched.active_sets[0] == tuple(range(5))


def test_build_rates_dispatch():
    sched = periodic_schedule([1, 2], 6)
    const = build_rates(ExperimentConfig(rate_kind="constant", eta0=0.3,
                                         iterations=6, clients=2), sched)
    np.testing.assert_array_equal(const.values, np.full(6, 0.3))
    expo = build_rates(ExperimentConfig(rate_kind="exponential", eta0=1.0,
                                        decay=0.5, iterations=6, clients=2), sched)
    assert expo.values[3] == 0.125
    inv = build_rates(ExperimentConfig(rate_kind="inverse_time", scale=1.0,
                                       beta=4.0, iterations=6, clients=2), sched)
    assert inv.values[0] == pytest.approx(2.0 / 4.0)
    assert inv.values[1] == pytest.approx(1.0 / 5.0)


def test_initial_model_modes():
    cfg = ExperimentConfig()
    np.testing.assert_array_equal(initial_model(cfg, 3, seed=1), np.zeros(3))
    normal_cfg = ExperimentConfig(init="normal", init_scale=2.0)
    w1 = initial_model(normal_cfg, 3, seed=1)
    w2 = initial_model(normal_cfg, 3, seed=1)
    np.testing.assert_array_equal(w1, w2)
    assert np.linalg.norm(w1) > 0
    half = initial_model(ExperimentConfig(init="normal", init_scale=1.0), 3, seed=1)
    np.testing.assert_allclose(w1, 2.0 * half)


# ---------------------------------------------------------------------------
# run_experiment and summaries


def quick_cfg(out, **over):
    base = dict(
        task="quadratic", classes=2, per_class=10, dim=2, separation=3.0,
        clients=4, algorithm="fedavg", iterations=8, local_steps=1,
        local_lr=0.1, batch_size=5, scenario="static", prob=0.7,
        rate_kind="constant", eta0=0.2, seeds=(1, 2), out=str(out),
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_run_experiment_writes_expected_files(tmp_path):
    cfg = quick_cfg(tmp_path / "runA")
    result = run_experiment(cfg)
    assert result.outdir == tmp_path / "runA"
    assert [p.name for p in result.csv_paths] == [
        "fedavg_static_seed1.csv", "fedavg_static_seed2.csv",
    ]
    assert all(p.exists() for p in result.csv_paths)
    assert result.summary_path.name == "summary.txt"
    assert not result.any_failed
    ini = configparser.ConfigParser()
    ini.read(result.summary_path)
    assert ini["run"]["algorithm"] == "fedavg"
    assert ini["run"]["fingerprint"] == cfg.fingerprint()
    budget = int(ini["aggregate"]["uploads_budget"])
    assert budget == min(t.uploads_total for t in result.trials)
    assert int(ini["aggregate"]["failed_trials"]) == 0
    assert ini["trial.1"]["csv"] == "fedavg_static_seed1.csv"
    assert "conditions_passed" in ini["trial.1"]
    assert "passed" in ini["trial.1.conditions"]


def test_uneven_shards_fail_before_any_output(tmp_path):
    cfg = quick_cfg(tmp_path / "uneven", shards_per_client=3)
    with pytest.raises(ConfigError, match="cannot split into 12 equal shards"):
        run_experiment(cfg)
    assert not (tmp_path / "uneven").exists()
    with pytest.raises(ConfigError, match="must be >= 1"):
        quick_cfg(tmp_path, shards_per_client=0).check_partition()
    quick_cfg(tmp_path, shards_per_client=5).check_partition()  # 20 samples, 20 shards


def test_run_experiment_repeats_byte_identically(tmp_path):
    r1 = run_experiment(quick_cfg(tmp_path / "a"))
    r2 = run_experiment(quick_cfg(tmp_path / "b"))
    for p1, p2 in zip(r1.csv_paths, r2.csv_paths):
        assert p1.read_bytes() == p2.read_bytes()
    assert r1.summary_path.read_bytes() == r2.summary_path.read_bytes()


def test_workers_do_not_change_bytes(tmp_path):
    serial = run_experiment(quick_cfg(tmp_path / "serial", seeds=(1, 2, 3)))
    threaded = run_experiment(quick_cfg(tmp_path / "threaded", seeds=(1, 2, 3), workers=3))
    for p1, p2 in zip(serial.csv_paths, threaded.csv_paths):
        assert p1.read_bytes() == p2.read_bytes()
    assert serial.summary_path.read_bytes() == threaded.summary_path.read_bytes()


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DROPFED_OUT", str(tmp_path / "root"))
    assert resolve_outdir("runs/x") == tmp_path / "root" / "runs" / "x"
    absolute = tmp_path / "abs"
    assert resolve_outdir(str(absolute)) == absolute
    result = run_experiment(quick_cfg("rel/dir", seeds=(1,)))
    assert result.outdir == tmp_path / "root" / "rel" / "dir"
    assert result.summary_path.exists()
    monkeypatch.delenv("DROPFED_OUT")
    assert resolve_outdir("runs/x") == Path("runs/x")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_summary_survives_diverged_trials(tmp_path):
    # Infinities from a blown-up run must not poison the aggregate lines.
    cfg = quick_cfg(tmp_path / "boom", eta0=1e8, iterations=60, seeds=(1,))
    result = run_experiment(cfg)
    assert result.any_failed
    ini = configparser.ConfigParser()
    ini.read(result.summary_path)
    assert int(ini["aggregate"]["failed_trials"]) == 1
    assert ini["trial.1"]["failed"] == "True"
    assert int(ini["trial.1"]["failure_round"]) >= 0


def test_render_summary_roundtrips_through_configparser(tmp_path):
    result = run_experiment(quick_cfg(tmp_path / "r", seeds=(1,)))
    text = render_summary(result.config, result.trials, result.csv_paths)
    ini = configparser.ConfigParser()
    ini.read_string(text)
    assert float(ini["trial.1"]["final_loss"]) == result.trials[0].final_loss
    assert float(ini["aggregate"]["final_loss_mean"]) == result.trials[0].final_loss
    assert float(ini["aggregate"]["final_loss_std"]) == 0.0
    # Accuracy is NaN for quadratics and must still parse.
    assert math.isnan(float(ini["aggregate"]["final_acc_mean"]))


# ---------------------------------------------------------------------------
# compare_runs


def test_compare_runs_matched_budget(tmp_path):
    a = run_experiment(quick_cfg(tmp_path / "fedavg", algorithm="fedavg"))
    b = run_experiment(quick_cfg(tmp_path / "mimic", algorithm="mimic", iterations=6))
    rows, table = compare_runs([a.summary_path, b.summary_path])
    assert len(rows) == 2
    assert isinstance(rows[0], ComparisonRow)
    # Budget is the smaller run's upload total.
    want_budget = min(
        min(t.uploads_total for t in a.trials), min(t.uploads_total for t in b.trials)
    )
    assert all(r.budget == want_budget for r in rows)
    # Quadratic task has no accuracy, so ranking is by loss, ascending.
    assert rows[0].loss_mean <= rows[1].loss_mean
    assert math.isnan(rows[0].acc_mean)
    assert "matched upload budget" in table
    assert "fedavg" in table and "mimic" in table


def test_compare_runs_detects_tie(tmp_path):
    a = run_experiment(quick_cfg(tmp_path / "one"))
    b = run_experiment(quick_cfg(tmp_path / "two"))
    rows, table = compare_runs([a.summary_path, b.summary_path])
    assert rows[1].tied_with_best
    assert "(tie)" in table


def test_compare_runs_refuses_different_tasks(tmp_path):
    a = run_experiment(quick_cfg(tmp_path / "a"))
    b = run_experiment(quick_cfg(tmp_path / "b", separation=2.0))
    with pytest.raises(ConfigError, match="not comparable"):
        compare_runs([a.summary_path, b.summary_path])
    with pytest.raises(ConfigError):
        compare_runs([a.summary_path])
    with pytest.raises(ConfigError, match="not found"):
        compare_runs([a.summary_path, tmp_path / "nope" / "summary.txt"])


def test_compare_runs_ranks_by_accuracy_when_available(tmp_path):
    common = dict(
        task="logistic", classes=2, per_class=10, clients=4, test_per_class=10,
        iterations=6, batch_size=5, local_lr=0.05, eta0=0.5, seeds=(1,),
    )
    a = run_experiment(quick_cfg(tmp_path / "a", **common, algorithm="fedavg"))
    b = run_experiment(quick_cfg(tmp_path / "b", **common, algorithm="mimic"))
    rows, _ = compare_runs([a.summary_path, b.summary_path])
    assert not math.isnan(rows[0].acc_mean)
    assert rows[0].acc_mean >= rows[1].acc_mean
