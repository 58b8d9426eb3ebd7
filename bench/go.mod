// The benchmark is a module of its own so that the root module's build,
// vet and test runs do not include it. Its import path keeps the nifdy/
// prefix, which is what lets it import nifdy/internal/... packages.
module nifdy/bench

go 1.22

require nifdy v0.0.0

replace nifdy => ../
