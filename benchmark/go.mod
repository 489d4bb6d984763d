module bamboo/benchmark

go 1.24

require bamboo v0.0.0

replace bamboo => ../
