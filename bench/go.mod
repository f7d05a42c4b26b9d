// The benchmark is a module of its own so that it builds from its own
// build file; the replace directive lets it import the system's internal
// packages (its module path keeps it inside itv's internal/ visibility).
module itv/bench

go 1.22

require itv v0.0.0

replace itv => ../
