package sub
