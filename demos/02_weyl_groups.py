"""Longest elements, the involution -w0, and weight orbits.

The star of this demo is the longest element tau of a parabolic
subgroup: the package finds a reduced word for it by greedy descent and
then reads off its action on the simple roots, reproducing the small
linear-system tables that the exceptional case analyses solve by hand.
"""

from weylpath import (
    Parabolic, build,
    apply_word_to_root, involution_index, longest_element, orbit_size,
    tau_on_omitted_root, weyl_order,
)

print("=" * 64)
print("tau for E6 with node 1 omitted (a D5 Levi)")
print("=" * 64)
rs = build("E6")
parab = Parabolic.maximal(6, 1)
tau = longest_element(rs, parab.retained)
print("reduced word, length", len(tau), ":", " ".join(map(str, tau)))
for j in sorted(parab.retained):
    print(f"  tau(alpha_{j}) =", apply_word_to_root(rs, tau, rs.simple_root(j)))
print("  tau(alpha_1) =", tau_on_omitted_root(rs, parab), " <- the one positive image")

print()
print("Same computation for E7 with node 7 omitted (an E6 Levi):")
rs7 = build("E7")
parab7 = Parabolic.maximal(7, 7)
print("  tau(alpha_7) =", tau_on_omitted_root(rs7, parab7))

print()
print("The involution -w0 as a permutation of the fundamental weights:")
for label in ("A5", "D5", "D6", "E6", "E7"):
    rsx = build(label)
    perm = [involution_index(rsx, d) for d in range(1, rsx.rank + 1)]
    print(f"  {label}: {perm}")

print()
print("Orbit sizes of some fundamental weights (|W| / |W_J| from root heights):")
for label, d in [("E7", 7), ("E6", 2), ("D6", 6), ("B5", 5), ("C5", 1)]:
    rsx = build(label)
    size = orbit_size(rsx, rsx.fundamental_weight(d))
    print(f"  {label}, omega_{d}: orbit {size:5d}   (|W| = {weyl_order(rsx)}, "
          f"quotient {weyl_order(rsx) // size})")
