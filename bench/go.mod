module marlperf/bench

go 1.22

require marlperf v0.0.0

replace marlperf => ../
