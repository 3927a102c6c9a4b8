module github.com/servicelayernetworking/slate/benchmark

go 1.24

require github.com/servicelayernetworking/slate v0.0.0

replace github.com/servicelayernetworking/slate => ../
