package xtest

var Seam = seam
