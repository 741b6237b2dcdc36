module adindex/bench

go 1.22

require adindex v0.0.0

replace adindex => ../
