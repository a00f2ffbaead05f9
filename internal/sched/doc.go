// Package sched implements the Fading-R-LS problem definition and all
// scheduling algorithms of the reproduction:
//
//   - LDP, the paper's link-diversity-partition algorithm (§IV-A,
//     O(g(L)) approximation under Rayleigh fading);
//   - RLE, the paper's recursive-link-elimination algorithm (§IV-B,
//     constant approximation for uniform rates);
//   - ApproxLogN and ApproxDiversity, the deterministic-SINR baselines
//     the paper compares against ([14], [15]), implemented with the
//     same grid / elimination geometry but non-fading budgets — which
//     is exactly what makes them fading-susceptible in Fig. 5;
//   - Greedy, a rate-greedy insertion heuristic (ablation comparator);
//   - DLS, a decentralized reconstruction of the algorithm the paper's
//     conclusion references but never defines (extension, see DESIGN.md);
//   - Exact, a parallel branch-and-bound solver of the ILP formulation
//     (Eqs. 20–22) used to measure empirical approximation ratios.
//
// All algorithms implement one contract, Algorithm (Name and Solve),
// and are run through Run, ScheduleContext or a Prepared handle. They
// consume a Problem (instance + radio parameters) and produce a
// Schedule; Greedy, the sharded merge and Exact's branch step all admit
// links through the one Corollary 3.1 insertion test. Verify re-checks any schedule against the
// Corollary 3.1 feasibility condition independently of how it was
// constructed, so algorithm bugs cannot hide behind their own
// bookkeeping.
package sched
