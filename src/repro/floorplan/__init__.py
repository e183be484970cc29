"""Island-aware floorplanning.

Modules: geometry primitives (`geometry`), slicing island allocation
(`islands`), core/switch placement (`placer`) and wire
length/power/delay (`wires`).
"""
