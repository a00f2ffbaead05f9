// Package network defines the link-set instance model of Fading-R-LS —
// senders, receivers, link lengths, data rates — together with the
// length-diversity machinery of Definition 4.1 (magnitude classes,
// g(L), the nested classes L_k of Eq. 36), deployment generators for
// every workload in the evaluation, and JSON instance serialization so
// experiments can be archived and replayed. Canon reads link lists in
// one pass over the canonical JSON subset; it backs both Read and the
// scheduling service's request decoder, with encoding/json as the
// fallback that defines the accepted language.
//
// Distances are precomputed lazily into a dense matrix (DistanceMatrix)
// because every algorithm and every feasibility check consumes pairwise
// sender→receiver distances; for the N ≤ a few thousand instances of
// the paper the O(N²) memory is the right trade against recomputing
// hypots in inner loops.
package network
