module quq/bench

go 1.22

require quq v0.0.0

replace quq => ../
