"""Check the control-of-mass inequality across the model catalog.

The inequality f <= f + mu*g <= 0 on u + v >= C is what the uniform
bounds hinge on.  It is checked by sampling a declared box once per
model, and both the inequality and g >= 0 are judged on that sample:
combustion and balanced absorption pass with (C, mu) = (0, 1/2); the
polynomial blow-up pair fails with explicit witnesses where f itself is
positive.  The threshold search behind absorption claims is shown at
the end.
"""

from rdcertify import (Absorption, BlowupExample, Combustion, DoubleExp,
                       DoubleExpMinusPoly, Exp, Power, check_g_nonneg,
                       check_mass_control, find_threshold_A, sample_box)

MODELS = [
    ("combustion m=1", Combustion(1)),
    ("combustion m=2", Combustion(2)),
    ("absorption F=G=exp", Absorption(Exp(), Exp())),
    ("blow-up example", BlowupExample()),
]

for name, model in MODELS:
    C = model.claimed_C if model.claimed_C is not None else 0.0
    mu = model.claimed_mu if model.claimed_mu is not None else 0.5
    sample = sample_box(model, 10.0, 64)
    mass = check_mass_control(sample, C, mu)
    gpos = check_g_nonneg(sample)
    print(f"{name}: C={C} mu={mu}")
    print(f"  mass control: {'pass' if mass.passed else 'FAIL'}"
          f" ({mass.samples_tested} samples,"
          f" {len(mass.violations)} violations)")
    print(f"  g >= 0: {'pass' if gpos.passed else 'FAIL'}")
    for w in mass.violations[:3]:
        print(f"    witness: u={w.u:.4f} v={w.v:.4f} f={w.f:.4f}"
              f" f+mu*g={w.f_plus_mu_g:.4f} ({w.which})")
    print()

print("threshold search: smallest A past which F/G stays above lam")
cases = [
    ("F=G=exp, lam=0.5", Exp(), Exp(), 0.5),
    ("F=e^(e^s)-s, G=e^(e^s), lam=0.91", DoubleExpMinusPoly([0.0, 1.0]),
     DoubleExp(), 0.91),
    ("F=s, G=e^s, lam=0.5", Power(1.0), Exp(), 0.5),
]
for label, F, G, lam in cases:
    A = find_threshold_A(F, G, lam)
    print(f"  {label}: A = {A if A is not None else 'not found'}")
