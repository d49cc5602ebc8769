module platod2gl/benchmark

go 1.22

require platod2gl v0.0.0

replace platod2gl => ../
