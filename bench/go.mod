module paradise/bench

go 1.23

require paradise v0.0.0

replace paradise => ../
