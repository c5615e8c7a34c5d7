module netkit/bench

go 1.22

require netkit v0.0.0

replace netkit => ../
