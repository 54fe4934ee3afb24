"""Seed families: the inputs each benchmark workload runs.

Seed 0 reproduces the reference inputs exactly: ``blowup`` is
``demos/configs/blowup.ini``, ``combustion-fine`` is
``demos/configs/combustion_bump.ini`` at 2001 nodes.  Any other seed
draws from a narrow family around them, narrow so that every member
stays in the workload's regime (the output checks enforce that) and the
work per run varies by a few percent only.  ``certify-sweep`` is a
stratified sweep of 300 control-of-mass claims for every seed.

Only the standard library is used here, so the parent process stays
light; ``random.Random`` seeded with a string is stable across runs and
platforms.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
WORKLOADS = ("blowup", "combustion-fine", "certify-sweep")
SWEEP_CLAIMS = 300
COMBUSTION_NODES = 2001

# Every field of every [section]; floats go through repr() so the text
# round-trips bit for bit.
_RUN_TEMPLATE = """\
[model]
{model}

[grid]
n_nodes = {n_nodes}
length = 1.0

[scheme]
{scheme}

[initial_u]
{initial_u}

[initial_v]
{initial_v}

[output]
csv = run.csv
report = run_report.txt
log_every = 10
"""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _lines(**fields) -> str:
    return "\n".join(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                     for k, v in fields.items())


def blowup_inputs(seed: int) -> dict:
    """Uniform data (u0, v0); u0 in [0.70, 0.80], v0 in [0.95, 1.05].

    With uniform data the system is the ODE u' = (u - u^2) v^2,
    v' = u v^2, so u stays in [u0, 1] and 1/v0 <= t* <= 1/(u0 v0) < 2.
    """
    if seed == DEFAULT_SEED:
        return {"u0": 0.75, "v0": 1.0}
    rng = _rng("blowup", seed)
    return {"u0": rng.uniform(0.70, 0.80), "v0": rng.uniform(0.95, 1.05)}


def combustion_inputs(seed: int) -> dict:
    """Gaussian bumps per species; seeds move the centres by up to 0.03
    and scale the heights by up to 5 %."""
    bumps = {"u": {"center": 0.5, "width": 0.12, "height": 1.0,
                   "baseline": 0.2},
             "v": {"center": 0.4, "width": 0.15, "height": 0.5,
                   "baseline": 0.1}}
    if seed != DEFAULT_SEED:
        rng = _rng("combustion-fine", seed)
        for bump in bumps.values():
            bump["center"] += rng.uniform(-0.03, 0.03)
            bump["height"] *= rng.uniform(0.95, 1.05)
    return bumps


def run_config(workload: str, seed: int) -> str:
    """INI text for ``rd-certify run`` on a run workload."""
    if workload == "blowup":
        p = blowup_inputs(seed)
        return _RUN_TEMPLATE.format(
            model="kind = blowup_example", n_nodes=31,
            scheme=_lines(a=1.0, b=1.0, t_end=3.0, rtol=1e-6, dt_init=1e-3,
                          dt_max=0.05, blowup_threshold=1e6),
            initial_u=_lines(kind="uniform", value=p["u0"]),
            initial_v=_lines(kind="uniform", value=p["v0"]))
    if workload == "combustion-fine":
        bumps = combustion_inputs(seed)
        return _RUN_TEMPLATE.format(
            model="kind = combustion\nm = 1", n_nodes=COMBUSTION_NODES,
            scheme=_lines(a=1.0, b=2.0, t_end=1.0, rtol=1e-6, dt_init=1e-4),
            initial_u=_lines(kind="bump", **bumps["u"]),
            initial_v=_lines(kind="bump", **bumps["v"]))
    raise ValueError(f"{workload!r} is not a run workload")


# ---------------------------------------------------------------------------
# certify-sweep
# ---------------------------------------------------------------------------

# The six growth-law families absorption claims draw F and G from
# (power laws split into sub- and superlinear); each maps an RNG to a spec.
_GROWTH_FAMILIES = (
    lambda r: "exp",
    lambda r: f"power:{r.uniform(0.3, 0.9)!r}",
    lambda r: f"power:{r.uniform(1.0, 3.0)!r}",
    lambda r: f"subexp:{r.uniform(0.2, 0.8)!r}",
    lambda r: "doubleexp",
    lambda r: f"doubleexp-poly:{r.uniform(0.0, 1.0)!r},{r.uniform(0.0, 1.0)!r}",
)

_CLAIM_TEMPLATE = """\
[model]
{model}

[grid]
n_nodes = 11
length = 1.0

[scheme]
a = 1.0
b = 1.0
t_end = 1.0

[initial_u]
kind = uniform
value = 1.0

[initial_v]
kind = uniform
value = 1.0
"""

# Claims 0..2 are anchors whose verdicts are known in closed form
# (acceptance criterion 5); the run checks them by index.
ANCHOR_COMBUSTION = 0
ANCHOR_ABSORPTION_EXP = 1
ANCHOR_BLOWUP = 2


def sweep_claims(seed: int) -> list[str]:
    """300 INI documents for ``rd-certify check``.

    The mix is fixed so that the work per seed barely moves: in every
    block of 10 claims, 3 are combustion (m = 1, 2, 3), 6 absorption and
    1 the blow-up example.  The 180 absorption claims walk the 36 (F, G)
    family pairs five times; the seed draws the law parameters and lam
    in [0.1, 0.9].  Absorption models claim (C, mu) = (A, lam) from the
    threshold search, or nothing, in which case ``check`` searches mu.
    """
    rng = _rng("certify-sweep", seed)
    pairs = [(f, g) for f in _GROWTH_FAMILIES for g in _GROWTH_FAMILIES]
    models = []
    absorption = 0
    for k in range(SWEEP_CLAIMS):
        slot = k % 10
        if slot < 3:
            models.append(f"kind = combustion\nm = {slot + 1}")
        elif slot < 9:
            make_f, make_g = pairs[absorption % len(pairs)]
            absorption += 1
            models.append(_lines(kind="absorption", F=make_f(rng),
                                 G=make_g(rng), lam=rng.uniform(0.1, 0.9)))
        else:
            models.append("kind = blowup_example")
    # Anchors: combustion m = 1 and absorption exp/exp with lam = 1/2 both
    # claim (C, mu) = (0, 1/2); the blow-up example claims nothing.
    models[ANCHOR_COMBUSTION] = "kind = combustion\nm = 1"
    models[ANCHOR_ABSORPTION_EXP] = _lines(kind="absorption", F="exp",
                                           G="exp", lam=0.5)
    models[ANCHOR_BLOWUP] = "kind = blowup_example"
    return [_CLAIM_TEMPLATE.format(model=m) for m in models]
