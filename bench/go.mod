module github.com/epicscale/sgl/bench

go 1.24

require github.com/epicscale/sgl v0.0.0

replace github.com/epicscale/sgl => ../
