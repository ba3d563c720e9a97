// The benchmark is a module of its own so that it has its own build file and
// stays out of the root module's ./... ; the name under repro/ is what lets
// it import repro/internal/... through the replace below.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
