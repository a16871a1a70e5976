module easybo/benchmark

go 1.21

require easybo v0.0.0

replace easybo => ../
