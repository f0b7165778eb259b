package modtree
