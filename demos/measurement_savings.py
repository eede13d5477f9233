"""Count how many stabilizer measurements gauge qubits save.

For a pair of [n, k] classical codes the grid construction measures
(n1-k1)k2 + k1(n2-k2) stabilizers, while the Shor-style subspace code on
the same grid needs (n1-k1)n2 + k1(n2-k2).  The difference is exactly one
measurement per gauge qubit.
"""

from subqec import compare_report, hamming_7_4, repetition


def main():
    print("repetition ladder (rep(n) paired with itself):\n")
    print(f"  {'n':>2} {'grid':>10} {'subsystem':>10} {'shor':>6} "
          f"{'saved':>6}")
    for n in range(2, 7):
        rep = repetition(n)
        r = compare_report(rep, rep)
        grid = r["grid"]
        label = f"[[{grid['n']},{grid['k']},{grid['distance']}]]"
        print(f"  {n:>2} {label:>10} {r['subsystem_stabilizers']:>10} "
              f"{r['shor_stabilizers']:>6} {r['stabilizers_saved']:>6}")

    ham = hamming_7_4()
    r = compare_report(ham, ham)
    grid = r["grid"]
    print(f"\nhamming(7,4) pair -> "
          f"[[{grid['n']},{grid['k']},{grid['distance']}]]:")
    print(f"  subsystem measurements: {r['subsystem_stabilizers']}")
    print(f"  shor-style equivalent:  {r['shor_stabilizers']}")
    print(f"  saved:                  {r['stabilizers_saved']}")

    print("\nComposed schemes that push the hamming grid to higher "
          "distance:\n")
    for scheme in r["composed_schemes"]:
        print(f"  {scheme['scheme']}")
        print(f"    inner {scheme['inner_stabilizers']} + "
              f"outer {scheme['outer_stabilizers']} = "
              f"{scheme['total']} measurements")


if __name__ == "__main__":
    main()
