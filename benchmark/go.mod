module sr3/benchmark

go 1.22

require sr3 v0.0.0

replace sr3 => ../
