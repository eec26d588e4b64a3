module hafw/bench

go 1.22

require hafw v0.0.0

replace hafw => ../
