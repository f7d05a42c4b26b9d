// Package itv is a from-scratch Go reproduction of "A Highly Available,
// Scalable ITV System" (Nelson, Linton, Owicki — SOSP 1995): the Object
// Communication System (OCS) built at SGI for Time Warner's interactive-TV
// trial in Orlando, together with the ITV services that ran on it.
//
// The implementation lives under internal/ (one package per subsystem; see
// DESIGN.md for the inventory), runnable programs under cmd/ and one
// third-party application under examples/shopping (each with a test that
// runs it), the evaluation suite in internal/experiments (printed by
// cmd/itv-bench), and the performance benchmark in bench/.  EXPERIMENTS.md
// records paper-versus-measured results for every reproduced figure and
// claim.
package itv
