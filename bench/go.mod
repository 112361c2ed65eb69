module uncertaindb/bench

go 1.22

require uncertaindb v0.0.0

replace uncertaindb => ../
