"""The benchmark tracer's contract with the code it wraps.

``perfbench/tracing.py`` patches fishcoop functions by name and reads the
rollout length from ``PpoAgent.update``'s second positional argument. It is
loaded here from its path, as the benchmark loads it, so a rename or a
signature change in fishcoop that would silently zero a traced count fails
here instead.
"""

import importlib.util
import math
from pathlib import Path

from fishcoop import harness
from fishcoop.learner import PpoAgent, PpoHyper

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = load_tracing()
    for owner, attr, _ in tracing.SPANS + tracing.COUNTERS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_traced_trial_counts_updates_and_minibatches():
    tracing = load_tracing()
    hyper = PpoHyper(steps_per_update=10, epochs_per_update=2, minibatch_size=4)
    config = harness.ExperimentConfig(
        n_agents=2, m_s=0.8, signal_cardinality=2, max_episodes=6, t_max=15, trials=1,
        base_seed=3, hyper=hyper,
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        mark = tracer.mark()
        result = harness.run_trial(config, 0)
        layers = tracer.unit_layers(mark)
    assert not result.failed
    updates = result.total_steps // hyper.steps_per_update
    assert updates >= 2
    assert layers["harness.run_episode"]["calls"] == result.episodes_run
    assert layers["learner.update"]["calls"] == config.n_agents * updates
    assert layers["learner.minibatch"]["max"] == (
        config.n_agents * updates * hyper.epochs_per_update
        * math.ceil(hyper.steps_per_update / hyper.minibatch_size)
    )
    assert layers["env.step"]["calls"] == result.total_steps
    # every wrapper is taken off again
    assert harness.run_episode.__qualname__ == "run_episode"
    assert PpoAgent.update.__qualname__ == "PpoAgent.update"
