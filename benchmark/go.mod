// The benchmark is its own module so the repository's build, test and
// coverage commands never see it. The module path keeps the factorml/
// prefix, which is what lets it import factorml/internal/... .
module factorml/benchmark

go 1.24

require factorml v0.0.0

replace factorml => ../
