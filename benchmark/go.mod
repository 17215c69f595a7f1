module kaminotx/benchmark

go 1.22

require kaminotx v0.0.0

replace kaminotx => ../
