module viampi

go 1.24
