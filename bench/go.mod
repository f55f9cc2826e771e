module icistrategy/bench

go 1.22

require icistrategy v0.0.0

replace icistrategy => ../
