"""The lean PPO update and step path against plain reference copies.

The reference functions below are the earlier, straightforward forms of
``_forward_batch``, ``ppo_loss_and_grads``, ``AdamState.step`` and
``ppo_update`` (fresh temporaries, ``np.outer``, a fresh gradient buffer per
minibatch, fancy-indexed minibatches) and of ``act``'s per-agent
log-probability. The library versions compute the same float operations in
the same order, so every result must be bitwise equal, not merely close.
"""

import numpy as np
import pytest

from fishcoop import learner
from fishcoop.learner import LOG_2PI, PolicyParams, PpoAgent, PpoHyper


def ref_gaussian_log_prob(x, mean, std):
    return -0.5 * ((x - mean) / std) ** 2 - np.log(std) - 0.5 * LOG_2PI


def ref_forward_batch(params, obs, e_max):
    h1 = np.tanh(obs @ np.swapaxes(params.w1, -1, -2) + params.b1[..., None, :])
    h2 = np.tanh(h1 @ np.swapaxes(params.w2, -1, -2) + params.b2[..., None, :])
    mean_in = (h2 @ params.w_mean[..., None])[..., 0] + params.b_mean[..., None]
    mean = e_max * (0.5 * (1.0 + np.tanh(0.5 * mean_in)))
    value = (h2 @ params.w_value[..., None])[..., 0] + params.b_value[..., None]
    return mean, value, h1, h2


def ref_loss_and_grads(params, obs, raw_actions, old_log_probs, advantages, returns,
                       hyper, e_max):
    n = len(obs)
    mean, value, h1, h2 = ref_forward_batch(params, obs, e_max)
    std = np.exp(params.log_std)

    log_probs = ref_gaussian_log_prob(raw_actions, mean, std)
    ratio = np.exp(log_probs - old_log_probs)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - hyper.clip, 1.0 + hyper.clip) * advantages
    surrogate = np.minimum(unclipped, clipped)
    policy_loss = -float(np.mean(surrogate))

    vf_err = value - returns
    vf_sq = vf_err**2
    vf_loss = float(np.mean(np.minimum(vf_sq, hyper.vf_clip)))

    entropy = params.log_std + 0.5 * (LOG_2PI + 1.0)
    loss = policy_loss + hyper.vf_coeff * vf_loss - hyper.entropy_coeff * entropy

    take_unclipped = unclipped <= clipped
    d_log_probs = -(1.0 / n) * advantages * ratio * take_unclipped
    grads = PolicyParams.from_flat(np.empty_like(params.flat), params.layer_sizes)
    d_mean = d_log_probs * (raw_actions - mean) / std**2
    grads.log_std = np.sum(d_log_probs * (((raw_actions - mean) / std) ** 2 - 1.0))
    grads.log_std -= hyper.entropy_coeff

    d_value = hyper.vf_coeff * (2.0 / n) * vf_err * (vf_sq < hyper.vf_clip)

    d_mean_raw = d_mean * mean * (1.0 - mean / e_max)
    grads.w_mean = h2.T @ d_mean_raw
    grads.b_mean = np.sum(d_mean_raw)
    grads.w_value = h2.T @ d_value
    grads.b_value = np.sum(d_value)

    d_h2 = np.outer(d_mean_raw, params.w_mean) + np.outer(d_value, params.w_value)
    d_z2 = d_h2 * (1.0 - h2**2)
    grads.w2 = d_z2.T @ h1
    grads.b2 = d_z2.sum(axis=0)
    d_h1 = d_z2 @ params.w2
    d_z1 = d_h1 * (1.0 - h1**2)
    grads.w1 = d_z1.T @ obs
    grads.b1 = d_z1.sum(axis=0)

    stats = {
        "policy_loss": policy_loss,
        "vf_loss": vf_loss,
        "entropy": float(entropy),
        "clip_fraction": float(np.mean(~take_unclipped)),
    }
    return float(loss), grads, stats


class RefAdam:
    def __init__(self, template):
        self.m = np.zeros_like(template)
        self.v = np.zeros_like(template)
        self.t = 0

    def step(self, flat, grad, lr):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        self.m = beta1 * self.m + (1.0 - beta1) * grad
        self.v = beta2 * self.v + (1.0 - beta2) * grad**2
        m_hat = self.m / (1.0 - beta1**self.t)
        v_hat = self.v / (1.0 - beta2**self.t)
        flat -= lr * m_hat / (np.sqrt(v_hat) + eps)


def ref_ppo_update(params, batch, hyper, e_max, rng, adam=None):
    n = len(batch["obs"])
    adv = batch["advantages"]
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    params = PolicyParams.from_flat(params.flat.copy(), params.layer_sizes)
    if adam is None:
        adam = RefAdam(params.flat)
    epochs_run, mean_kl, last_stats = 0, 0.0, {}
    for _ in range(hyper.epochs_per_update):
        order = rng.permutation(n)
        for start in range(0, n, hyper.minibatch_size):
            idx = order[start : start + hyper.minibatch_size]
            _, grads, last_stats = ref_loss_and_grads(
                params, batch["obs"][idx], batch["raw_actions"][idx],
                batch["old_log_probs"][idx], adv[idx], batch["returns"][idx], hyper, e_max,
            )
            adam.step(params.flat, grads.flat, hyper.learning_rate)
        epochs_run += 1
        new_mean, _, _, _ = ref_forward_batch(params, batch["obs"], e_max)
        std_new, std_old = np.exp(params.log_std), batch["old_std"]
        kl = (np.log(std_new / std_old)
              + (std_old**2 + (batch["old_means"] - new_mean) ** 2) / (2.0 * std_new**2) - 0.5)
        mean_kl = float(np.mean(kl))
        if mean_kl > 1.5 * hyper.kl_target:
            break
    stats = dict(last_stats)
    stats.update({"mean_kl": mean_kl, "epochs_run": epochs_run})
    return params, adam, stats


def batch_of(agent, rows, rng):
    """A rollout-shaped batch: observations, the agent's own draws at them."""
    g = agent.g
    obs = np.column_stack(
        (rng.uniform(0, 1, rows), rng.normal(0, 0.3, rows), np.eye(g)[rng.integers(0, g, rows)])
    )
    means, _ = agent.forward(obs)
    raws = rng.normal(means, agent.std)
    return {
        "obs": obs,
        "raw_actions": raws,
        "old_log_probs": ref_gaussian_log_prob(raws, means, agent.std),
        "old_means": means,
        "old_std": agent.std,
        "advantages": rng.normal(0, 1, rows),
        "returns": rng.normal(0, 1, rows),
    }


@pytest.mark.parametrize("rows", [400, 128, 1])
@pytest.mark.parametrize("kl_target", [1e9, 1e-9])
def test_ppo_update_is_bitwise_the_reference(rows, kl_target):
    # 400 rows leave a 16-row last minibatch; a tiny KL target stops the
    # epoch loop early
    hyper = PpoHyper(learning_rate=1e-3, epochs_per_update=4, minibatch_size=128,
                     kl_target=kl_target, entropy_coeff=0.01)
    agent = PpoAgent(3, 1.0, hyper, np.random.default_rng(rows), hidden=(16, 16))
    data_rng = np.random.default_rng([rows, 1])
    params, adam = agent.params, None
    ref_params, ref_adam = agent.params, None
    for update in range(2):  # the second update continues both Adam states
        batch = batch_of(agent, rows, data_rng)
        params, adam, stats = learner.ppo_update(
            params, batch, hyper, 1.0, np.random.default_rng([rows, update]), adam
        )
        ref_params, ref_adam, ref_stats = ref_ppo_update(
            ref_params, batch, hyper, 1.0, np.random.default_rng([rows, update]), ref_adam
        )
        assert params.flat.tobytes() == ref_params.flat.tobytes()
        assert adam.m.tobytes() == ref_adam.m.tobytes()
        assert adam.v.tobytes() == ref_adam.v.tobytes()
        assert adam.t == ref_adam.t
        assert stats == ref_stats
        assert (stats["epochs_run"] < 4) == (kl_target < 1)


def test_loss_and_grads_into_a_given_buffer_is_the_reference():
    hyper = PpoHyper(entropy_coeff=0.05)
    agent = PpoAgent(2, 1.5, hyper, np.random.default_rng(8), hidden=(8, 8))
    rng = np.random.default_rng(9)
    grads = PolicyParams.from_flat(np.full_like(agent.params.flat, np.nan), (4, 8, 8))
    for rows in (37, 5):
        b = batch_of(agent, rows, rng)
        columns = (b["obs"], b["raw_actions"], b["old_log_probs"], b["advantages"], b["returns"])
        ref = ref_loss_and_grads(agent.params, *columns, hyper, 1.5)
        fresh = learner.ppo_loss_and_grads(agent.params, *columns, hyper, 1.5)
        given = learner.ppo_loss_and_grads(agent.params, *columns, hyper, 1.5, grads)
        assert given[1] is grads
        for loss, g, stats in (fresh, given):
            assert (loss, stats) == (ref[0], ref[2])
            assert g.flat.tobytes() == ref[1].flat.tobytes()


def test_act_log_probs_match_the_per_agent_formula():
    # one agent per log_std from -8 to 2; each log-probability must equal the
    # scalar formula on Python floats, bit for bit
    log_stds = np.linspace(-8.0, 2.0, 1001)
    n = len(log_stds)
    layer_sizes = (5, 4, 4)
    rng = np.random.default_rng(12)
    policy = PolicyParams.from_flat(
        rng.normal(0, 0.5, (n, learner._layout(layer_sizes)[1])), layer_sizes
    )
    policy.log_std = log_stds
    rngs = [np.random.default_rng([12, i]) for i in range(n)]
    for _ in range(3):
        obs = np.column_stack(
            (rng.uniform(0, 1, n), rng.normal(size=n), np.eye(3)[rng.integers(0, 3, n)])
        )
        efforts, (raws, log_probs, values, means) = learner.act(policy, obs, rngs, 1.0)
        mean_ref, value_ref, _, _ = ref_forward_batch(policy, obs[:, None, :], 1.0)
        assert means.tobytes() == mean_ref[:, 0].tobytes()
        assert values.tobytes() == value_ref[:, 0].tobytes()
        stds = np.exp(policy.log_std).tolist()
        for raw, log_prob, mean, std, effort in zip(
            raws, log_probs, means.tolist(), stds, efforts
        ):
            assert log_prob == ref_gaussian_log_prob(raw, mean, std)
            assert effort == min(max(raw, 0.0), 1.0)
